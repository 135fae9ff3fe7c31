package netproto

import (
	"errors"
	"sync"
)

// ResponseHandler receives the response frames of one request: exactly
// one for a plain call, every frame up to and including the terminal
// one for a stream.
type ResponseHandler interface {
	HandleResponse(Response)
}

// ResponseFunc adapts a function to ResponseHandler.
type ResponseFunc func(Response)

// HandleResponse calls f.
func (f ResponseFunc) HandleResponse(resp Response) { f(resp) }

// Pending is the requesting side's table of in-flight requests: it
// allocates request IDs, routes each response frame to the handler
// registered under its ID, keeps a stream's handler until its terminal
// frame, and on failure hands every handler a synthesized terminal
// frame — nothing registered here is left without an answer. The table
// is independent of any one Conn, so a reconnecting client keeps it
// (and its monotonic IDs) across transport generations.
//
// A relaying table (NewRelayPending) also takes registrations under
// the caller's own IDs (AddAt, AddRelay): a relay forwards a request of
// a client of another connection under the client's request ID, and
// each answer goes onto that connection as it arrived, a binary one
// without being decoded.
//
// Handlers run on the delivering goroutine, outside the table's lock.
type Pending struct {
	mu      sync.Mutex
	nextID  uint64
	entries map[uint64]pendingEntry
	failed  bool

	// relay is the connection relays answer on: nil on a table that
	// relays nothing.
	relay *Conn
}

// pendingEntry is a handler's registration or, with h nil, a relay's.
type pendingEntry struct {
	h      ResponseHandler
	stream bool // registered until a terminal frame, not just the first
	unsub  bool // a relayed stream an unsubscribe ends (Unsubscribed)
}

// ErrInFlight refuses a registration under a request ID the table
// still holds.
var ErrInFlight = errors.New("request id already in flight")

// errFailed refuses a registration once the table has failed: it would
// never be answered.
var errFailed = errors.New("connection failed")

// NewPending returns an empty table whose first ID is 1.
func NewPending() *Pending {
	return &Pending{entries: map[uint64]pendingEntry{}}
}

// NewRelayPending is NewPending for a table that also relays (AddRelay)
// onto the connection to.
func NewRelayPending(to *Conn) *Pending {
	t := NewPending()
	t.relay = to
	return t
}

// NextID allocates a request ID without a handler (fire-and-forget
// posts, handshake frames): the read loop drops the response as unknown.
func (t *Pending) NextID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// Add registers h under a fresh request ID. ok is false once the table
// has failed: the handler would never be answered.
func (t *Pending) Add(h ResponseHandler, stream bool) (id uint64, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID, t.putLocked(t.nextID, pendingEntry{h: h, stream: stream}) == nil
}

// AddAt registers h for the one answer to the request id, an ID the
// caller chose. The error is ErrInFlight for an ID the table still
// holds, or a table that has failed.
func (t *Pending) AddAt(id uint64, h ResponseHandler) error {
	return t.put(id, pendingEntry{h: h})
}

// AddRelay registers a relay of the request id of a client of the relay
// connection, under that same ID: its answers need no handler, each is
// queued (not flushed) on the relay connection — a stream op's up to its
// terminal frame. An unsubscribe ends the relay of a subscribe or
// acquire, not of an open waiting for its notice (Unsubscribed). The
// error is ErrInFlight for an ID the table still holds, or a table that
// has failed.
func (t *Pending) AddRelay(id uint64, spec OpSpec) error {
	return t.put(id, pendingEntry{stream: spec.Stream, unsub: spec.Stream && spec.Name != OpOpen})
}

func (t *Pending) put(id uint64, e pendingEntry) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.putLocked(id, e)
}

func (t *Pending) putLocked(id uint64, e pendingEntry) error {
	if t.failed {
		return errFailed
	}
	if _, live := t.entries[id]; live {
		return ErrInFlight
	}
	t.entries[id] = e
	return nil
}

// Remove withdraws a registration (an abandoned call, a canceled
// stream, a relay whose frame could not be queued). ok is false when a
// terminal frame or a failure got there first: whoever removes the
// entry owns telling the handler.
func (t *Pending) Remove(id uint64) (h ResponseHandler, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	delete(t.entries, id)
	return e.h, ok
}

// Unsubscribed ends the relay of stream id, if an unsubscribe ends it:
// the daemon has acked the stream's unsubscribe and produces nothing
// more for it.
func (t *Pending) Unsubscribed(id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.entries[id].unsub {
		delete(t.entries, id)
	}
}

// Hand gives the live request id a new handler for its later frames: a
// handler that answered the first frame of a stream passes the rest on
// (a missed open's call handing its notice to a readiness record). A
// handler calls it while it handles a frame, so the next frame, which
// the same goroutine delivers, already finds h. ok is false when the
// entry is gone, or is a relay's.
func (t *Pending) Hand(id uint64, h ResponseHandler) (ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if ok = ok && e.h != nil; ok {
		e.h = h
		t.entries[id] = e
	}
	return ok
}

// take looks up the entry a frame with the given ID and terminal bit
// answers — only a relay's, when relayOnly — and drops it when the frame
// is its last.
func (t *Pending) take(id uint64, terminal, relayOnly bool) (pendingEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if ok = ok && (e.h == nil || !relayOnly); ok && (!e.stream || terminal) {
		delete(t.entries, id)
	}
	return e, ok
}

// receive routes one response payload. A relay's frame is queued on the
// relay connection as it arrived: a binary one is walked, not decoded,
// for its ID and terminal bit, and a JSON one is decoded only to find
// its entry. Every other frame is decoded into resp for its handler;
// frames for unknown IDs are dropped. The error is a payload that does
// not parse.
func (t *Pending) receive(payload []byte, resp *Response) error {
	if t.relay != nil && isBinPayload(payload, true) {
		var r binResponse
		if err := walkBinResponse(payload, &r); err != nil {
			return err
		}
		if _, ok := t.take(r.id, r.terminal(), true); ok {
			t.relay.EnqueuePayload(payload)
			return nil
		}
	}
	*resp = Response{} // the JSON decoder merges into its target
	if err := parseResponse(payload, true, resp); err != nil {
		return err
	}
	e, ok := t.take(resp.ID, resp.Terminal(), false)
	switch {
	case !ok:
	case e.h != nil:
		e.h.HandleResponse(*resp)
	default:
		t.relay.EnqueuePayload(payload)
	}
	return nil
}

// Serve reads response frames from c and delivers them until reading
// fails, and returns that error. An undecodable response counts: it
// names no request, so skipping it would strand the handler it was
// meant for. idle, when set, runs each time the responses buffered so
// far have all been delivered.
func (t *Pending) Serve(c *Conn, idle func()) error {
	var resp Response // one per loop: a frame decodes into it through a pointer, which would cost a heap Response per frame
	for {
		payload, pooled, err := c.nextFrame()
		if err != nil {
			return err
		}
		err = t.receive(payload, &resp)
		c.frameDone(payload, pooled)
		if err != nil {
			return err
		}
		if idle != nil && !FrameBuffered(c.br) {
			idle()
		}
	}
}

// Sweep removes every entry for which drop reports true. drop runs
// under the table's lock and must not call back into the table.
func (t *Pending) Sweep(drop func(id uint64, h ResponseHandler) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, e := range t.entries {
		if drop(id, e.h) {
			delete(t.entries, id)
		}
	}
}

// Fail ends the table: every registered handler and relay receives
// resp under its request ID, a relay's flushed — resp should be
// terminal (Done) — and later registrations are refused. Failing twice
// is harmless.
func (t *Pending) Fail(resp Response) {
	t.mu.Lock()
	entries := t.entries
	t.entries = map[uint64]pendingEntry{}
	t.failed = true
	t.mu.Unlock()
	relayed := false
	for id, e := range entries {
		resp.ID = id
		if e.h != nil {
			e.h.HandleResponse(resp)
			continue
		}
		if t.relay.EnqueueResponse(&resp) != nil {
			t.relay.Close() // the client sees the loss
		}
		relayed = true
	}
	if relayed {
		// No read loop is left to flush after this batch. A failed write
		// closes the connection, which its reader sees.
		_ = t.relay.Flush()
	}
}

// Failed reports whether Fail has run.
func (t *Pending) Failed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failed
}
