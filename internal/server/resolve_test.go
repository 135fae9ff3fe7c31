package server

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"simfs/internal/core"
	"simfs/internal/dvlib"
	"simfs/internal/model"
	"simfs/internal/netproto"
)

// A release drops a reference of the releasing session, never another
// client's: core counts a step's references, not whose they are, so a
// session that releases a file only another session opened is refused,
// and the other session's reference still pins the step.
func TestReleaseOfAnotherSessionsFileRefused(t *testing.T) {
	st, addr := testStack(t)
	dial := func(name string) *dvlib.Context {
		c, err := dvlib.Dial(addr, name)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		ctx, err := c.Init("clim")
		if err != nil {
			t.Fatal(err)
		}
		return ctx
	}
	if err := st.V.Preload("clim", []int{5}); err != nil {
		t.Fatal(err)
	}
	a, b := dial("a"), dial("b")
	file := a.Filename(5)
	if res, err := a.Open(file); err != nil || !res.Available {
		t.Fatalf("a's open of %s = %+v, %v; want a hit", file, res, err)
	}
	err := b.Close(file)
	if dvlib.ErrCodeOf(err) != netproto.CodeBadRequest || !strings.Contains(err.Error(), "not held by this session") {
		t.Fatalf("b's release of a file only a holds = %v; want bad_request, not held by this session", err)
	}
	if err := st.V.Referenced("clim", file); err != nil {
		t.Fatalf("after b's refused release, a's reference is gone: %v", err)
	}
	if err := a.Close(file); err != nil {
		t.Fatalf("a's release: %v", err)
	}
	if err := st.V.Referenced("clim", file); !errors.Is(err, core.ErrInvalid) {
		t.Fatalf("after a's release the file is still referenced (%v)", err)
	}
}

// The step a request's name resolved to at decode time is trusted only
// while it still names the file: a context deregistered and registered
// again between the decode and the dispatch — under another prefix, or
// with a shorter timeline — answers the open by its new rules, with the
// code and text of a name that was never resolved, and opens nothing.
func TestResolvedStepRevalidated(t *testing.T) {
	def := func(prefix string, timesteps int) *model.Context {
		return &model.Context{
			Name: "clim", FilePrefix: prefix, FileSuffix: ".nc",
			Grid:        model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: timesteps},
			OutputBytes: 64, RestartBytes: 64, Tau: time.Millisecond, Alpha: time.Millisecond,
			DefaultParallelism: 1, MaxParallelism: 1, SMax: 2, NoPrefetch: true,
		}
	}
	for _, c := range []struct {
		what string
		next *model.Context
		step int
		want string
	}{
		{"another prefix", def("new_", 64), 3,
			`bad_request: core: invalid request: model: "clim_out_00000003.nc" does not match naming convention "new_"*".nc"`},
		{"a shorter timeline", def("clim_out_", 32), 40,
			`bad_request: core: invalid request: "clim_out_00000040.nc" is outside the simulated timeline`},
	} {
		t.Run(c.what, func(t *testing.T) {
			st, err := NewStack(t.TempDir(), 1, "LRU", def("clim_out_", 64))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				st.Close()
				st.Launcher.Wait()
			})
			in, out := tcpPair(t)
			// A session of the dispatch loop's making, short of its pusher,
			// which an open refused at once never reaches.
			sess := &session{c: netproto.NewConn(in), srv: st.Server, client: "t", held: map[heldFile]int{}}
			sess.c.SetNames(st.V.Names)
			client := netproto.NewConn(out)
			file := model.StepFilename("clim_out_", c.step, ".nc")
			read := func(id uint64) netproto.Envelope {
				req := netproto.NewFileEnvelope(id, netproto.OpOpen, netproto.FileBody{Context: "clim", File: file})
				if err := client.EnqueueRequest(&req); err != nil {
					t.Fatal(err)
				}
				if err := client.Flush(); err != nil {
					t.Fatal(err)
				}
				var env netproto.Envelope
				if err := sess.c.ReadRequest(&env, nil); err != nil {
					t.Fatal(err)
				}
				return env
			}
			answer := func(env netproto.Envelope) string {
				st.Server.dispatch(sess, &env)
				sess.flush()
				var resp netproto.Response
				if err := client.ReadResponse(&resp); err != nil {
					t.Fatal(err)
				}
				if resp.OK || !resp.Done {
					return "not refused"
				}
				return string(resp.Code) + ": " + resp.Err
			}

			stale := read(1)
			if stale.Step() != c.step {
				t.Fatalf("%s decoded to step %d, want %d", file, stale.Step(), c.step)
			}
			if err := st.V.RemoveContext("clim"); err != nil {
				t.Fatal(err)
			}
			if err := st.RegisterContext(c.next, "LRU", false); err != nil {
				t.Fatal(err)
			}
			fresh := read(2)
			if fresh.Step() != 0 {
				t.Fatalf("%s decoded against the new context to step %d, want none", file, fresh.Step())
			}
			if got, unresolved := answer(stale), answer(fresh); got != c.want || unresolved != c.want {
				t.Errorf("open at the stale step answered %q, unresolved %q; want %q", got, unresolved, c.want)
			}
			if s, err := st.V.Stats("clim"); err != nil || s.Opens != 0 {
				t.Errorf("the new context counted %d opens (%v), want 0", s.Opens, err)
			}
		})
	}
}

// tcpPair returns both ends of a loopback TCP connection.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	out, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	in, err := l.Accept()
	if err != nil {
		out.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		in.Close()
		out.Close()
	})
	for _, c := range []net.Conn{in, out} {
		c.SetDeadline(time.Now().Add(10 * time.Second))
	}
	return in, out
}
