package fed_test

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"simfs/internal/core"
	"simfs/internal/dvlib"
	"simfs/internal/netproto"
	"simfs/internal/server"
)

// The control-plane ops no single member owns — sched-get, sched-set and
// an all-contexts quarantine-reset — fan out to every ring member and
// come back as one answer.

// TestFederationSchedGet: the router answers sched-get with a member's
// scheduler config.
func TestFederationSchedGet(t *testing.T) {
	stA, addrA := newFedStack(t, "seed-a", nil)
	stB, addrB := newFedStack(t, "seed-b", nil)
	_, raddr := startRouter(t, addrA, addrB)
	// Members are configured alike; either one's config is the answer.
	on, nodes := true, 3
	for _, st := range []*server.Stack{stA, stB} {
		if _, err := st.V.UpdateSchedConfig(netproto.SchedSetBody{Coalesce: &on, TotalNodes: &nodes}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := dvlib.Dial(raddr, "fan-get")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Admin().SchedConfig(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := stA.V.SchedConfig(); got != want {
		t.Errorf("routed sched-get = %+v, want %+v", got, want)
	}
}

// TestFederationSchedSetAppliedOnAll: a sched-set through the router
// reconfigures every member and answers with the resulting config.
func TestFederationSchedSetAppliedOnAll(t *testing.T) {
	stA, addrA := newFedStack(t, "seed-a", nil)
	stB, addrB := newFedStack(t, "seed-b", nil)
	_, raddr := startRouter(t, addrA, addrB)
	c, err := dvlib.Dial(raddr, "fan-set")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	on, nodes := true, 6
	got, err := c.Admin().UpdateSchedConfig(context.Background(),
		dvlib.SchedUpdate{Priorities: &on, TotalNodes: &nodes})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Priorities || got.TotalNodes != nodes {
		t.Errorf("routed sched-set answered %+v, want priorities on and %d nodes", got, nodes)
	}
	for i, st := range []*server.Stack{stA, stB} {
		if cfg := st.V.SchedConfig(); cfg != got {
			t.Errorf("member %d runs %+v after the routed sched-set, want %+v", i, cfg, got)
		}
	}
}

// TestFederationSchedSetNamesFailingMember: a sched-set one member
// refuses, or cannot be reached for, fails as a whole, and the error
// names that member.
func TestFederationSchedSetNamesFailingMember(t *testing.T) {
	t.Run("refused", func(t *testing.T) {
		_, addr := newFedStack(t, "seed", nil)
		raw, links := rawDaemon(t)
		_, raddr := startRouter(t, addr, raw)
		go func() {
			link, ok := <-links
			if !ok {
				return
			}
			var env netproto.Envelope
			link.SetReadDeadline(time.Now().Add(5 * time.Second))
			if netproto.Binary.DecodeFrame(link, &env) != nil {
				return
			}
			netproto.Binary.EncodeFrame(link, netproto.Response{ID: env.ID, Code: netproto.CodeBadRequest,
				Err: "sched: refused by policy"})
		}()
		c := rawClient(t, raddr)
		c.SetDeadline(time.Now().Add(5 * time.Second))
		on := true
		resp, err := exchange(c, 2, netproto.OpSchedSet, netproto.SchedSetBody{Coalesce: &on})
		if err != nil {
			t.Fatal(err)
		}
		want := "sched-set incomplete: member " + raw + ": sched: refused by policy"
		if resp.ID != 2 || resp.Code != netproto.CodeBadRequest || resp.Err != want {
			t.Errorf("sched-set answered %+v, want bad_request %q on id 2", resp, want)
		}
	})
	t.Run("unreachable", func(t *testing.T) {
		_, addr := newFedStack(t, "seed", nil)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dead := ln.Addr().String()
		ln.Close()
		_, raddr := startRouter(t, addr, dead)
		c := rawClient(t, raddr)
		c.SetDeadline(time.Now().Add(5 * time.Second))
		on := true
		resp, err := exchange(c, 2, netproto.OpSchedSet, netproto.SchedSetBody{Coalesce: &on})
		if err != nil {
			t.Fatal(err)
		}
		prefix := "sched-set incomplete: member " + dead + " unreachable: "
		if resp.ID != 2 || resp.Code != netproto.CodeBusy || !strings.HasPrefix(resp.Err, prefix) {
			t.Errorf("sched-set answered %+v, want busy %q… on id 2", resp, prefix)
		}
	})
}

// TestFederationQuarantineResetSums: an all-contexts quarantine-reset
// clears every member's ledger and answers with the summed count.
func TestFederationQuarantineResetSums(t *testing.T) {
	quarantining := func(st *server.Stack) {
		st.Launcher.FailAt = func(_ string, first, _ int) int { return first }
		st.V.SetRetryPolicy(core.RetryPolicy{MaxAttempts: 1, Cooldown: time.Hour})
	}
	var addrs []string
	for _, seed := range []string{"seed-a", "seed-b"} {
		_, addr := newFedStack(t, seed, quarantining)
		addrs = append(addrs, addr)
		// One open whose re-simulation crashes twice quarantines one
		// interval on this member.
		c, err := dvlib.Dial(addr, "quarantine-"+seed)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ctx, err := c.Init(seed)
		if err != nil {
			t.Fatal(err)
		}
		file := ctx.Filename(40)
		res, err := ctx.Open(file)
		if err != nil || res.Available {
			t.Fatalf("open %s on %s = %+v, %v; want a miss", file, seed, res, err)
		}
		if err := ctx.WaitAvailable(file); err == nil {
			t.Fatalf("%s on %s became available; want its re-simulation quarantined", file, seed)
		}
	}
	_, raddr := startRouter(t, addrs...)
	c, err := dvlib.Dial(raddr, "fan-reset")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n, err := c.Admin().ResetQuarantine(context.Background(), "")
	if err != nil || n != 2 {
		t.Fatalf("routed all-contexts quarantine-reset = %d, %v; want both members' 1 summed to 2", n, err)
	}
	if n, err := c.Admin().ResetQuarantine(context.Background(), ""); err != nil || n != 0 {
		t.Fatalf("second reset = %d, %v; want 0 left", n, err)
	}
}

// TestFederationQuarantineResetBadBody: a quarantine-reset whose body
// does not decode is answered bad_request by the router on its own ID.
func TestFederationQuarantineResetBadBody(t *testing.T) {
	_, addr := newFedStack(t, "seed", nil)
	_, raddr := startRouter(t, addr)
	c := rawClient(t, raddr)
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Write(frame([]byte(`{"id":5,"op":"quarantine-reset","body":"everything"}`))); err != nil {
		t.Fatal(err)
	}
	var resp netproto.Response
	if err := netproto.Binary.DecodeFrame(c, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 5 || resp.Code != netproto.CodeBadRequest {
		t.Errorf("quarantine-reset with an undecodable body answered %+v, want bad_request on id 5", resp)
	}
	if resp, err := exchange(c, 6, netproto.OpPing, nil); err != nil || !resp.OK || resp.ID != 6 {
		t.Errorf("ping after the refusal: %+v, %v", resp, err)
	}
}
