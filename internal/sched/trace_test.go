package sched

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

var updateTrace = flag.Bool("update-trace", false, "rewrite testdata/queue_trace.txt from this run")

// traceClients are the clients the queue trace submits for; "" is a
// demand request without a client.
var traceClients = []string{"alice", "bob", "carol", "dave", ""}

// TestQueueTrace replays a seeded sequence of scheduler operations —
// submissions, requeues, pops, starts, completions, releases, client
// withdrawals (with and without a keep callback), demand promotions,
// quota drops and live reconfigurations — and compares every decision
// and popped job, every client's quota debt and load, and the counters
// with testdata/queue_trace.txt. A reconfiguration that would switch
// deficit-round-robin fairness on or off is applied only while nothing
// is queued and no popped job awaits its start or release. Regenerate
// with `go test ./internal/sched -run TestQueueTrace -update-trace`.
func TestQueueTrace(t *testing.T) {
	var buf bytes.Buffer
	for seed := int64(1); seed <= 5; seed++ {
		replayTrace(t, &buf, seed, 400)
	}
	if *updateTrace {
		if err := os.WriteFile("testdata/queue_trace.txt", buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/queue_trace.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(got), len(exp)) {
			if got[i] != exp[i] {
				t.Fatalf("queue trace diverges at line %d\n got: %s\nwant: %s", i+1, got[i], exp[i])
			}
		}
		t.Fatalf("queue trace has %d lines, want %d", len(got), len(exp))
	}
}

// traceRun is one simulation the trace admitted or started: SimDone
// returns its slot and nodes later.
type traceRun struct {
	ctx   string
	nodes int
}

func replayTrace(t *testing.T, w *bytes.Buffer, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	clk := &manualClock{}
	// Each seed starts from a different policy: the daemon's default,
	// the same with fairness on, the paper-exact zero config, and
	// fairness under a node budget, with and without coalescing.
	s := New(clk, []Config{
		{Coalesce: true, Priorities: true},
		{Coalesce: true, Priorities: true, DRRQuantum: 4},
		{},
		{Coalesce: true, Priorities: true, TotalNodes: 6, DRRQuantum: 8},
		{Priorities: true, DRRQuantum: 4},
	}[(seed-1)%5])
	ctxs := []string{"a", "b", "c"}
	s.Register("a", 2)
	s.Register("b", 3)
	s.Register("c", 0)
	var popped []Job // popped, neither started nor released
	var running []traceRun
	fmt.Fprintf(w, "== seed %d\n", seed)

	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	request := func() Request {
		first := 1 + rng.Intn(30)
		return Request{
			Ctx: pick(ctxs), First: first, Last: first + rng.Intn(12),
			Parallelism: 1 + rng.Intn(3), Class: Class(rng.Intn(3)), Client: pick(traceClients),
		}
	}
	idle := func() bool { return s.Stats().QueueDepth == 0 && len(popped) == 0 }
	for op := 1; op <= ops; op++ {
		clk.now += time.Duration(rng.Intn(5)) * time.Second
		var line string
		switch k := rng.Intn(100); {
		case k < 30:
			r := request()
			d := s.Submit(r)
			if d == Admitted {
				running = append(running, traceRun{r.Ctx, r.Parallelism})
			}
			line = fmt.Sprintf("submit %s -> %s", fmtReq(r), [...]string{"admitted", "queued", "dropped"}[d])
		case k < 33:
			r := request()
			s.Enqueue(r)
			line = "enqueue " + fmtReq(r)
		case k < 46:
			j, ok := s.Next()
			if !ok {
				line = "next -> none"
				break
			}
			popped = append(popped, j)
			line = "next -> " + fmtJob(j)
		case k < 56:
			if len(popped) == 0 {
				line = "start -> none"
				break
			}
			i := rng.Intn(len(popped))
			j := popped[i]
			popped = slices.Delete(popped, i, i+1)
			running = append(running, traceRun{j.Ctx, j.Parallelism})
			line = "start " + fmtJob(j)
		case k < 68:
			if len(running) == 0 {
				line = "simdone -> none"
				break
			}
			i := rng.Intn(len(running))
			r := running[i]
			running = slices.Delete(running, i, i+1)
			s.SimDone(r.ctx, r.nodes)
			line = fmt.Sprintf("simdone %s nodes=%d", r.ctx, r.nodes)
		case k < 73:
			if len(popped) == 0 {
				line = "release -> none"
				break
			}
			i := rng.Intn(len(popped))
			j := popped[i]
			popped = slices.Delete(popped, i, i+1)
			s.Release(j)
			line = "release " + fmtJob(j)
		case k < 80:
			ctx, client := pick(ctxs), pick(traceClients)
			var keep func(first, last int) bool
			how := "nil"
			if rng.Intn(2) == 0 {
				mod := 2 + rng.Intn(3)
				keep = func(first, _ int) bool { return first%mod == 0 }
				how = fmt.Sprintf("first%%%d==0", mod)
			}
			removed := s.CancelClient(ctx, client, keep)
			var rs []string
			for _, j := range removed {
				rs = append(rs, fmt.Sprintf("[%d,%d]", j.First, j.Last))
			}
			line = fmt.Sprintf("cancel %s %q keep=%s -> %v", ctx, client, how, rs)
		case k < 88:
			ctx, step, client := pick(ctxs), 1+rng.Intn(42), pick(traceClients)
			line = fmt.Sprintf("promote %s step=%d %q -> %v", ctx, step, client, s.PromoteDemand(ctx, step, client))
		case k < 90:
			client := pick(traceClients)
			s.DropClientQuota(client)
			line = fmt.Sprintf("dropquota %q", client)
		case k < 92:
			// Quiesce: start what was popped and run the queue dry, so
			// that later reconfigurations find the scheduler idle.
			var ids []string
			for len(popped) > 0 || len(running) > 0 {
				for _, j := range popped {
					running = append(running, traceRun{j.Ctx, j.Parallelism})
				}
				popped = popped[:0]
				for _, r := range running {
					s.SimDone(r.ctx, r.nodes)
				}
				running = running[:0]
				for {
					j, ok := s.Next()
					if !ok {
						break
					}
					ids = append(ids, fmt.Sprintf("%s[%d,%d]%s%q", j.Ctx, j.First, j.Last, j.Class, j.Client))
					popped = append(popped, j)
				}
			}
			line = fmt.Sprintf("quiesce -> %v", ids)
		default:
			var p Patch
			cfg := s.Config()
			switch rng.Intn(6) {
			case 0:
				v := !cfg.Coalesce
				p.Coalesce = &v
			case 1:
				v := !cfg.Priorities
				p.Priorities = &v
			case 2, 3:
				v := []int{0, 4, 6}[rng.Intn(3)]
				p.TotalNodes = &v
			default:
				v := []int{0, 4, 8}[rng.Intn(3)]
				p.DRRQuantum = &v
			}
			next, err := p.Apply(cfg)
			if err != nil {
				t.Fatal(err)
			}
			toggles := (next.DRRQuantum > 0 && next.Priorities) != (cfg.DRRQuantum > 0 && cfg.Priorities)
			if toggles && !idle() {
				line = "update " + p.String() + " -> deferred (fairness toggle while busy)"
				break
			}
			cfg, err = s.Update(p)
			if err != nil {
				t.Fatal(err)
			}
			line = fmt.Sprintf("update %s -> %+v", p, cfg)
		}
		fmt.Fprintf(w, "%04d %s\n", op, line)
		fmt.Fprintf(w, "     %s\n", traceState(s))
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("seed %d op %d: %v", seed, op, err)
		}
	}
	fmt.Fprintf(w, "loads %v\n", s.ClientLoads())
}

func fmtReq(r Request) string {
	return fmt.Sprintf("%s [%d,%d] par=%d %s %q", r.Ctx, r.First, r.Last, r.Parallelism, r.Class, r.Client)
}

func fmtJob(j Job) string { return fmtReq(j.Request) }

// traceState renders what the trace pins after every operation: each
// client's quota debt ("-" when it has no entry) and the counters.
func traceState(s *Scheduler) string {
	var b strings.Builder
	b.WriteString("quota")
	for _, c := range traceClients {
		if d, ok := s.QuotaDebt(c); ok {
			fmt.Fprintf(&b, " %q=%d", c, d)
		} else {
			fmt.Fprintf(&b, " %q=-", c)
		}
	}
	st := s.Stats()
	fmt.Fprintf(&b, " | queued=%d coalesced=%d dropped=%d canceled=%d promoted=%d rounds=%d deferred=%d depth=%d",
		st.Queued, st.Coalesced, st.Dropped, st.Canceled, st.Promoted, st.QuotaRounds, st.QuotaDeferred, st.QueueDepth)
	fmt.Fprintf(&b, " wait d=%d/%v g=%d/%v a=%d/%v",
		st.DemandWait.Jobs, st.DemandWait.Wait, st.GuidedWait.Jobs, st.GuidedWait.Wait, st.AgentWait.Jobs, st.AgentWait.Wait)
	return b.String()
}
