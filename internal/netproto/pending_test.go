package netproto

import (
	"errors"
	"testing"
)

// TestPendingRelayRegistration: a relaying table takes registrations
// under the caller's IDs, refuses one still live and every one once it
// has failed, and an unsubscribe ends a subscribe or acquire relay but
// not an open waiting for its notice.
func TestPendingRelayRegistration(t *testing.T) {
	t.Run("id rules", func(t *testing.T) {
		tab := NewRelayPending(nil)
		open, _ := LookupOp(OpOpen)
		if err := tab.AddRelay(5, open); err != nil {
			t.Fatal(err)
		}
		if err := tab.AddRelay(5, open); !errors.Is(err, ErrInFlight) {
			t.Fatalf("a second relay under live id 5 = %v, want ErrInFlight", err)
		}
		if err := tab.AddAt(5, ResponseFunc(func(Response) {})); !errors.Is(err, ErrInFlight) {
			t.Fatalf("a call under live id 5 = %v, want ErrInFlight", err)
		}
		tab.Remove(5)
		if err := tab.AddAt(5, ResponseFunc(func(Response) {})); err != nil {
			t.Fatalf("id 5 once removed = %v, want it free", err)
		}
		tab.Fail(Response{Done: true})
		if err := tab.AddRelay(6, open); err == nil || errors.Is(err, ErrInFlight) {
			t.Fatalf("a relay after Fail = %v, want the failure", err)
		}
	})
	t.Run("unsubscribe", func(t *testing.T) {
		tab := NewRelayPending(nil)
		for id, op := range map[uint64]string{1: OpOpen, 2: OpSubscribe, 3: OpAcquire} {
			spec, _ := LookupOp(op)
			if err := tab.AddRelay(id, spec); err != nil {
				t.Fatal(err)
			}
			tab.Unsubscribed(id)
		}
		if _, ok := tab.Remove(1); !ok {
			t.Error("an unsubscribe ended the relay of an open")
		}
		for _, id := range []uint64{2, 3} {
			if _, ok := tab.Remove(id); ok {
				t.Errorf("an unsubscribe left the relay of stream %d", id)
			}
		}
	})
}
