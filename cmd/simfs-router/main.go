// Command simfs-router is the federation front-end: it speaks the
// ordinary DVLib protocol to clients and forwards every data-plane op
// to the daemon owning its context on a consistent-hash ring, so a set
// of simfs-dv daemons scales out behind one address.
//
// Usage:
//
//	simfs-router -addr 127.0.0.1:7800 -peers 127.0.0.1:7878,127.0.0.1:7879
//
// Clients dial the router exactly like a daemon (dvlib, simfs-ctl,
// the io shims — nothing changes); contexts and stats fan out to all
// members and merge. Every op on a context, ctx-register included,
// goes to its one owner, so a watch and the open that produces its file
// meet on the same daemon.
package main

import (
	"flag"
	"log"
	"strings"

	"simfs/internal/fed"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7800", "listen address")
	peers := flag.String("peers", "", "comma-separated daemon addresses (required)")
	replicas := flag.Int("replicas", fed.DefaultReplicas, "virtual nodes per daemon on the hash ring")
	flag.Parse()

	var members []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			members = append(members, p)
		}
	}
	if len(members) == 0 {
		log.Fatal("simfs-router: -peers requires at least one daemon address")
	}

	r := fed.NewRouter(members, *replicas, log.Printf)
	if err := r.Listen(*addr); err != nil {
		log.Fatalf("simfs-router: %v", err)
	}
	log.Printf("simfs-router: serving on %s, routing %d context shards across %v (replicas=%d)",
		r.Addr(), len(members), members, *replicas)
	if err := r.Serve(); err != nil {
		log.Fatalf("simfs-router: %v", err)
	}
}
