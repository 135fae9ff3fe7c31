package dvlib

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"simfs/internal/netproto"
)

// TestCallStateMachine drives a call through every order its outcome and
// its Wait can come in — the response before the Wait, the response to
// a parked Wait, the reconnect sweep's typed failure before and after
// the Wait parks, and a response racing the Wait — with the test
// standing in for the read loop. Each Wait returns once, with the
// response or the typed error. A token channel goes back to the pool
// only from a parked Wait woken by a token, so no channel the pool hands
// out afterwards is closed or still holds a token.
func TestCallStateMachine(t *testing.T) {
	nc, peer := net.Pipe()
	t.Cleanup(func() {
		nc.Close()
		peer.Close()
	})
	// Nothing is queued, so await's flush never writes to the pipe.
	c := &Client{calls: netproto.NewPending(), conn: netproto.NewConn(nc)}
	resp := netproto.Response{ID: 1, OK: true, Count: 7}
	typed := fmt.Errorf("dvlib: %s: %w", netproto.OpPing, ErrReconnecting)
	respond := func(p *pendingCall) { p.HandleResponse(resp) }
	sweep := func(p *pendingCall) { p.answer(typed) }
	type outcome struct {
		resp netproto.Response
		err  error
	}
	for _, tc := range []struct {
		what string
		// order: "before" answers, then waits; "parked" waits until the
		// call is parked, then answers; "racing" does both at once.
		order   string
		answer  func(*pendingCall)
		wantErr error
	}{
		{"answered before its Wait", "before", respond, nil},
		{"answered while parked", "parked", respond, nil},
		{"failed by the sweep before parking", "before", sweep, ErrReconnecting},
		{"failed by the sweep after parking", "parked", sweep, ErrReconnecting},
		{"answered racing its Wait", "racing", respond, nil},
		{"failed by the sweep racing its Wait", "racing", sweep, ErrReconnecting},
	} {
		t.Run(tc.what, func(t *testing.T) {
			for range 200 {
				p := &pendingCall{c: c, env: newEnv(netproto.OpPing, nil)}
				done := make(chan outcome, 1)
				wait := func() {
					r, err := c.await(context.Background(), p)
					done <- outcome{r, err}
				}
				switch tc.order {
				case "before":
					tc.answer(p)
					wait()
				case "parked":
					go wait()
					for p.state.Load() != callParked {
						runtime.Gosched()
					}
					tc.answer(p)
				case "racing":
					go wait()
					tc.answer(p)
				}
				var got outcome
				select {
				case got = <-done:
				case <-time.After(5 * time.Second):
					t.Fatal("Wait never returned")
				}
				switch {
				case tc.wantErr != nil && !errors.Is(got.err, tc.wantErr):
					t.Fatalf("Wait = %+v, %v; want %v", got.resp, got.err, tc.wantErr)
				case tc.wantErr == nil && (got.err != nil || !reflect.DeepEqual(got.resp, resp)):
					t.Fatalf("Wait = %+v, %v; want %+v", got.resp, got.err, resp)
				case p.state.Load() != callAnswered:
					t.Fatalf("call left in state %d", p.state.Load())
				}
			}
			var drawn []chan struct{}
			for range 64 {
				ch := tokens.Get().(chan struct{})
				select {
				case _, open := <-ch:
					t.Fatalf("the pool handed out a channel that is closed (%v) or holds a token", !open)
				default:
				}
				drawn = append(drawn, ch)
			}
			for _, ch := range drawn {
				tokens.Put(ch)
			}
		})
	}
}
