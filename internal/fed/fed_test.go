// Integration tests for the federation tier: a consistent-hash router
// in front of real daemons, exercised with the ordinary dvlib client.
// `make fed-smoke` runs them, with the rest of the package, under the
// race detector.
package fed_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"simfs/internal/dvlib"
	"simfs/internal/fed"
	"simfs/internal/model"
	"simfs/internal/netproto"
	"simfs/internal/server"
)

// fedCtx builds a small, fast context: 4 ms simulation start-up, 2 ms
// per output step, 64 steps.
func fedCtx(name string) *model.Context {
	return &model.Context{
		Name:               name,
		Grid:               model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: 64},
		OutputBytes:        256,
		RestartBytes:       128,
		Tau:                2 * time.Millisecond,
		Alpha:              4 * time.Millisecond,
		DefaultParallelism: 1,
		MaxParallelism:     1,
		SMax:               4,
	}
}

// newFedStack starts one daemon with a seed context on an ephemeral
// port. configure runs after construction, before Serve.
func newFedStack(t *testing.T, seed string, configure func(*server.Stack)) (*server.Stack, string) {
	t.Helper()
	st, err := server.NewStack(t.TempDir(), 1, "DCL", fedCtx(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RunInitialSimulation(seed); err != nil {
		t.Fatal(err)
	}
	if configure != nil {
		configure(st)
	}
	if err := st.Server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go st.Server.Serve()
	t.Cleanup(func() {
		st.Close()
		st.Launcher.Wait()
	})
	return st, st.Server.Addr()
}

// startRouter runs a router over the given daemons on an ephemeral port.
func startRouter(t *testing.T, addrs ...string) (*fed.Router, string) {
	t.Helper()
	r := fed.NewRouter(addrs, 0, nil)
	if err := r.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go r.Serve()
	t.Cleanup(r.Close)
	return r, r.Addr()
}

// pickName generates a context name the ring places on the wanted owner.
func pickName(t *testing.T, ring *fed.Ring, owner string, used map[string]bool) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("fedctx%d", i)
		if used[name] {
			continue
		}
		if ring.Owner(name) == owner {
			used[name] = true
			return name
		}
	}
	t.Fatalf("no context name maps to %s", owner)
	return ""
}

// TestFederationRouterProxy covers the data plane through the router:
// contexts sharded across two daemons, open → wait → release on both
// shards through one client connection, fan-out contexts and
// owner-routed stats.
func TestFederationRouterProxy(t *testing.T) {
	stA, addrA := newFedStack(t, "seed-a", nil)
	stB, addrB := newFedStack(t, "seed-b", nil)
	r, raddr := startRouter(t, addrA, addrB)

	used := map[string]bool{}
	nameA := pickName(t, r.Ring(), addrA, used)
	nameB := pickName(t, r.Ring(), addrB, used)
	if err := stA.RegisterContext(fedCtx(nameA), "DCL", true); err != nil {
		t.Fatal(err)
	}
	if err := stB.RegisterContext(fedCtx(nameB), "DCL", true); err != nil {
		t.Fatal(err)
	}

	c, err := dvlib.Dial(raddr, "fed-client")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	names, err := c.Contexts()
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, want := range []string{"seed-a", "seed-b", nameA, nameB} {
		if !have[want] {
			t.Errorf("contexts fan-out union %v is missing %q", names, want)
		}
	}

	// One open→wait→release round per shard, then a re-open that must be
	// a cache hit on the owning daemon.
	for _, name := range []string{nameA, nameB} {
		ctx, err := c.Init(name)
		if err != nil {
			t.Fatalf("init %s: %v", name, err)
		}
		file := ctx.Filename(3)
		res, err := ctx.Open(file)
		if err != nil {
			t.Fatalf("open %s: %v", file, err)
		}
		if !res.Available {
			if err := ctx.WaitAvailable(file); err != nil {
				t.Fatalf("wait %s: %v", file, err)
			}
		}
		if err := ctx.Release(file); err != nil {
			t.Fatalf("release %s: %v", file, err)
		}
		res, err = ctx.Open(file)
		if err != nil || !res.Available {
			t.Fatalf("re-open %s = %+v, %v; want available", file, res, err)
		}
		ctx.Release(file)

		st, err := ctx.Stats()
		if err != nil {
			t.Fatalf("stats %s: %v", name, err)
		}
		if st.Opens < 2 {
			t.Errorf("stats for %s: opens = %d, want >= 2", name, st.Opens)
		}
		if len(st.Ops) == 0 {
			t.Errorf("stats for %s carry no per-op latencies", name)
		}
	}

	// The router's peers view lists both ring members as connected (the
	// session dialed both while fanning out).
	infos, err := c.Admin().Peers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("router peers = %+v, want 2 members", infos)
	}
	for _, p := range infos {
		if p.Role != "member" || !p.Connected {
			t.Errorf("router peer %+v, want connected member", p)
		}
	}
}

// TestFederationStatsFromOwner pins that a context's stats come from
// its one owner. The context is registered on both daemons, and the
// non-owner's copy serves an open of its own (a client dialing B
// directly); the router's stats answer must still be exactly the
// owner's record, with nothing of B's counters or scheduler ledger
// summed in. LockStats and Ops are left out: the stats call itself
// moves them.
func TestFederationStatsFromOwner(t *testing.T) {
	stA, addrA := newFedStack(t, "seed-a", nil)
	stB, addrB := newFedStack(t, "seed-b", nil)
	r, raddr := startRouter(t, addrA, addrB)

	name := pickName(t, r.Ring(), addrA, map[string]bool{})
	for _, st := range []*server.Stack{stA, stB} {
		if err := st.RegisterContext(fedCtx(name), "DCL", true); err != nil {
			t.Fatal(err)
		}
	}

	// openOnce runs one open → wait → release of step on addr.
	openOnce := func(addr, client string, step int) *dvlib.Context {
		t.Helper()
		c, err := dvlib.Dial(addr, client)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		ctx, err := c.Init(name)
		if err != nil {
			t.Fatalf("init %s on %s: %v", name, addr, err)
		}
		file := ctx.Filename(step)
		res, err := ctx.Open(file)
		if err != nil {
			t.Fatalf("open %s on %s: %v", file, addr, err)
		}
		if !res.Available {
			if err := ctx.WaitAvailable(file); err != nil {
				t.Fatalf("wait %s on %s: %v", file, addr, err)
			}
		}
		if err := ctx.Release(file); err != nil {
			t.Fatalf("release %s on %s: %v", file, addr, err)
		}
		return ctx
	}
	openOnce(addrB, "direct-b", 3)
	routed := openOnce(raddr, "fed-client", 5)
	// Quiesce both daemons: every re-simulation (and prefetch) the opens
	// started has ended, so no counter moves between the two reads.
	stA.Launcher.Wait()
	stB.Launcher.Wait()

	if b, err := stB.V.Report(name); err != nil || b.Opens == 0 {
		t.Fatalf("B's copy of %s: opens %d, %v; want the direct open counted", name, b.Opens, err)
	}
	got, err := routed.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want, err := stA.V.Report(name)
	if err != nil {
		t.Fatal(err)
	}
	if got.CtxStats != want.CtxStats {
		t.Errorf("routed CtxStats = %+v, want the owner's %+v", got.CtxStats, want.CtxStats)
	}
	if got.SchedStats != want.SchedStats {
		t.Errorf("routed SchedStats = %+v, want the owner's %+v", got.SchedStats, want.SchedStats)
	}
	if !reflect.DeepEqual(got.ClientLoads, want.ClientLoads) {
		t.Errorf("routed ClientLoads = %v, want the owner's %v", got.ClientLoads, want.ClientLoads)
	}
	if got.CachePolicy != want.CachePolicy || got.Draining != want.Draining {
		t.Errorf("routed cache policy %q draining %v, want the owner's %q %v",
			got.CachePolicy, got.Draining, want.CachePolicy, want.Draining)
	}
}

// TestFederationDeadPeer pins the failure semantics: ops routed to a
// daemon that died answer with the retryable busy/draining codes, not a
// hang or a silent success.
func TestFederationDeadPeer(t *testing.T) {
	stA, addrA := newFedStack(t, "seed-a", nil)
	stB, addrB := newFedStack(t, "seed-b", nil)
	r, raddr := startRouter(t, addrA, addrB)

	used := map[string]bool{}
	// Ring ownership depends on the randomly assigned listen ports, so
	// both shards need picked names — the seed context may hash to
	// either daemon.
	nameA := pickName(t, r.Ring(), addrA, used)
	nameB := pickName(t, r.Ring(), addrB, used)
	if err := stA.RegisterContext(fedCtx(nameA), "DCL", true); err != nil {
		t.Fatal(err)
	}
	if err := stB.RegisterContext(fedCtx(nameB), "DCL", true); err != nil {
		t.Fatal(err)
	}

	c, err := dvlib.Dial(raddr, "fed-client")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init(nameB)
	if err != nil {
		t.Fatal(err)
	}
	file := ctx.Filename(2)
	if _, err := ctx.Open(file); err != nil {
		t.Fatal(err)
	}
	if err := ctx.WaitAvailable(file); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Release(file); err != nil {
		t.Fatal(err)
	}

	stB.Close()
	stB.Launcher.Wait()

	// The in-flight generation fails as draining (synthesized for the
	// broken conn), later ones as busy (redial refused). Either way the
	// client sees a structured, retryable code.
	sawErr := false
	for i := 0; i < 10; i++ {
		_, err := ctx.Open(ctx.Filename(3))
		if err == nil {
			ctx.Release(ctx.Filename(3))
			continue
		}
		sawErr = true
		code := dvlib.ErrCodeOf(err)
		if code != netproto.CodeBusy && code != netproto.CodeDraining {
			t.Fatalf("open against dead daemon: code %q (%v), want busy or draining", code, err)
		}
		break
	}
	if !sawErr {
		t.Fatal("opens kept succeeding after the owning daemon closed")
	}

	// The healthy shard keeps serving through the same client.
	ctxA, err := c.Init(nameA)
	if err != nil {
		t.Fatal(err)
	}
	fileA := ctxA.Filename(2)
	if _, err := ctxA.Open(fileA); err != nil {
		t.Fatal(err)
	}
	if err := ctxA.WaitAvailable(fileA); err != nil {
		t.Fatal(err)
	}
	ctxA.Release(fileA)
}

// TestFederationSmoke is the chaos path `make fed-smoke` runs under
// -race: two daemons behind a router, reconnecting clients hammering
// both shards, the router killed and restarted on the same address
// mid-run. Clients must keep completing rounds after the restart.
func TestFederationSmoke(t *testing.T) {
	stA, addrA := newFedStack(t, "seed-a", nil)
	stB, addrB := newFedStack(t, "seed-b", nil)
	members := []string{addrA, addrB}

	r1 := fed.NewRouter(members, 0, nil)
	if err := r1.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go r1.Serve()
	raddr := r1.Addr()

	used := map[string]bool{}
	nameA := pickName(t, r1.Ring(), addrA, used)
	nameB := pickName(t, r1.Ring(), addrB, used)
	if err := stA.RegisterContext(fedCtx(nameA), "DCL", true); err != nil {
		t.Fatal(err)
	}
	if err := stB.RegisterContext(fedCtx(nameB), "DCL", true); err != nil {
		t.Fatal(err)
	}

	reconnect := dvlib.ReconnectConfig{
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  100 * time.Millisecond,
		MaxElapsed:  20 * time.Second,
	}
	type client struct {
		ctx *dvlib.Context
		cl  *dvlib.Client
	}
	clients := make([]client, 2)
	for i, name := range []string{nameA, nameB} {
		cfg := reconnect
		cfg.Seed = int64(i) + 1
		cl, err := dvlib.Dial(raddr, fmt.Sprintf("smoke-%d", i), dvlib.WithReconnect(cfg))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		ctx, err := cl.Init(name)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = client{ctx: ctx, cl: cl}
	}

	// round does one open→wait→release on a fresh step; errors during
	// the outage are expected and reported to the caller.
	round := func(c client, step int) error {
		file := c.ctx.Filename(step%60 + 1)
		if _, err := c.ctx.Open(file); err != nil {
			return err
		}
		if err := c.ctx.WaitAvailable(file); err != nil {
			return err
		}
		return c.ctx.Release(file)
	}

	var stop sync.WaitGroup
	done := make(chan struct{})
	var mu sync.Mutex
	afterRestart := make([]int, len(clients))
	restarted := make(chan struct{})
	for i := range clients {
		stop.Add(1)
		go func(i int) {
			defer stop.Done()
			for step := 0; ; step++ {
				select {
				case <-done:
					return
				default:
				}
				err := round(clients[i], step)
				if err == nil {
					select {
					case <-restarted:
						mu.Lock()
						afterRestart[i]++
						mu.Unlock()
					default:
					}
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(i)
	}

	// Let the workload run, then kill the router and bring a fresh one
	// up on the same address.
	time.Sleep(300 * time.Millisecond)
	r1.Close()
	r2 := fed.NewRouter(members, 0, nil)
	var bindErr error
	for i := 0; i < 100; i++ {
		if bindErr = r2.Listen(raddr); bindErr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if bindErr != nil {
		t.Fatalf("rebind router on %s: %v", raddr, bindErr)
	}
	go r2.Serve()
	t.Cleanup(r2.Close)
	close(restarted)

	deadline := time.After(20 * time.Second)
	for {
		mu.Lock()
		ok := true
		for _, n := range afterRestart {
			if n < 3 {
				ok = false
			}
		}
		mu.Unlock()
		if ok {
			break
		}
		select {
		case <-deadline:
			mu.Lock()
			counts := append([]int(nil), afterRestart...)
			mu.Unlock()
			t.Fatalf("clients did not recover after router restart: post-restart rounds = %v, want >= 3 each", counts)
		case <-time.After(50 * time.Millisecond):
		}
	}
	close(done)
	stop.Wait()
}

// TestFederationGarbageResponseFailsLink pins the no-stranded-waiter
// contract of a member link: a well-framed but undecodable response
// names no request — or names one but cannot be read — so skipping it
// would leave whichever handler it was meant for waiting until the link
// dies on its own. The link fails instead, and the handler receives its
// synthesized terminal frame. The handler here is a router fan-out's:
// the client's contexts call reaches a fake daemon that answers it with
// garbage.
func TestFederationGarbageResponseFailsLink(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload func(id uint64) []byte
	}{
		{"JSON garbage", func(uint64) []byte { return []byte("{{{{") }},
		// A valid ID, then a file flag whose 9-byte name holds one byte.
		{"truncated binary fields", func(id uint64) []byte {
			return append(append([]byte{0xB1}, binary.AppendUvarint(nil, id)...), 1<<5, 0, 9, 'x')
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				// A fake daemon: grant the hello with the binary codec, read
				// the request, answer with garbage.
				var env netproto.Envelope
				if err := netproto.Binary.DecodeFrame(conn, &env); err != nil {
					return
				}
				netproto.Binary.EncodeFrame(conn, netproto.Response{ID: env.ID, OK: true,
					Proto: &netproto.HelloInfo{Version: netproto.ProtoVersion, Caps: []string{netproto.CapBinary}}})
				if err := netproto.Binary.DecodeFrame(conn, &env); err != nil {
					return
				}
				p := tc.payload(env.ID)
				conn.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(p))), p...))
				// Keep the connection open: only the router's own reaction to
				// the garbage may end the wait.
				netproto.Binary.DecodeFrame(conn, &env)
			}()

			_, raddr := startRouter(t, ln.Addr().String())
			c := rawClient(t, raddr)
			// Within the router's fan-out call timeout: a stranded handler
			// would be answered only when that runs out.
			c.SetDeadline(time.Now().Add(5 * time.Second))
			resp, err := exchange(c, 2, netproto.OpContexts, nil)
			if err != nil {
				t.Fatalf("handler stranded: no answer after an undecodable response: %v", err)
			}
			if resp.ID != 2 || !resp.Done || resp.Code != netproto.CodeDraining {
				t.Errorf("contexts answered with %+v, want a terminal draining frame on id 2", resp)
			}
			peers, err := exchange(c, 3, netproto.OpPeers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(peers.Peers) != 1 || peers.Peers[0].Connected {
				t.Errorf("router peers = %+v after the garbage, want the member's link down", peers.Peers)
			}
		})
	}
}

// TestFederationRetiredOpsRefused: an op the protocol does not have —
// here ones it retired, with the bodies an older peer sent — is answered
// by the router as a daemon answers it: unsupported, on the request's
// own ID, and the session goes on.
func TestFederationRetiredOpsRefused(t *testing.T) {
	_, addr := newFedStack(t, "seed", nil)
	_, raddr := startRouter(t, addr)
	c := rawClient(t, raddr)
	c.SetDeadline(time.Now().Add(5 * time.Second))
	for _, row := range []struct {
		id   uint64
		op   string
		body any
	}{
		{2, "wait", netproto.FileBody{Context: "seed", File: "seed_out_00000003.nc"}},
		{3, "autoscale-report", map[string]any{"active": true, "policies": []string{"node-budget"}}},
		{4, "fed-watch", netproto.FilesBody{Context: "seed", Files: []string{"seed_out_00000003.nc"}}},
		{5, "no-such-op", nil}, // a name the op table never had
	} {
		resp, err := exchange(c, row.id, row.op, row.body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Code != netproto.CodeUnsupported || resp.ID != row.id || resp.OK {
			t.Errorf("%s answered with %+v, want CodeUnsupported on id %d", row.op, resp, row.id)
		}
	}
	if resp, err := exchange(c, 6, netproto.OpPing, nil); err != nil || !resp.OK || resp.ID != 6 {
		t.Errorf("ping after the refusals: %+v, %v", resp, err)
	}
}

// TestFederationStreamRefusedAsAWhole: a stream op the daemon refuses
// outright — here a watch and an acquire on a context that was
// deregistered under the client's handle — must end the client's wait
// with that refusal, dialed directly and through the router. The
// refusal used to arrive without Done, which both client handlers
// waited for: WaitAvailable and Req.Wait blocked forever.
func TestFederationStreamRefusedAsAWhole(t *testing.T) {
	const name = "gone"
	_, addr := newFedStack(t, name, nil)
	_, raddr := startRouter(t, addr)

	type dialed struct {
		via string
		ctx *dvlib.Context
	}
	var handles []dialed
	for _, d := range []struct{ via, addr string }{{"direct", addr}, {"router", raddr}} {
		c, err := dvlib.Dial(d.addr, "refused-"+d.via)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ctx, err := c.Init(name)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, dialed{d.via, ctx})
	}
	adminConn, err := dvlib.Dial(addr, "refused-admin")
	if err != nil {
		t.Fatal(err)
	}
	defer adminConn.Close()
	admin, bg := adminConn.Admin(), context.Background()
	if err := admin.Drain(bg, name); err != nil {
		t.Fatal(err)
	}
	if err := admin.DeregisterContext(bg, name); err != nil {
		t.Fatal(err)
	}

	// within fails the test instead of hanging it when call never returns.
	within := func(via, what string, call func() string) {
		t.Helper()
		got := make(chan string, 1)
		go func() { got <- call() }()
		select {
		case msg := <-got:
			if !strings.Contains(msg, "unknown context") {
				t.Errorf("%s: %s ended with %q, want the no_such_context refusal", via, what, msg)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: %s still blocked 5 s after the daemon refused it", via, what)
		}
	}
	for _, h := range handles {
		file := h.ctx.Filename(3)
		within(h.via, "WaitAvailable", func() string {
			return fmt.Sprint(h.ctx.WaitAvailable(file))
		})
		within(h.via, "AcquireNB.Wait", func() string {
			req, err := h.ctx.AcquireNB(file)
			if err != nil {
				return err.Error()
			}
			st, err := req.Wait()
			return fmt.Sprint(st.Err, err)
		})
	}
}
