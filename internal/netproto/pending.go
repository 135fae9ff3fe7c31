package netproto

import "sync"

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
// Handlers run on the delivering goroutine, outside the table's lock.
type Pending struct {
	mu      sync.Mutex
	nextID  uint64
	entries map[uint64]pendingEntry
	failed  bool
}

type pendingEntry struct {
	h      ResponseHandler
	stream bool // registered until a terminal frame, not just the first
}

// NewPending returns an empty table whose first ID is 1.
func NewPending() *Pending {
	return &Pending{entries: map[uint64]pendingEntry{}}
}

// NextID allocates a request ID without a handler (fire-and-forget
// posts, handshake frames): Deliver drops the response as unknown.
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
	if t.failed {
		return 0, false
	}
	t.nextID++
	t.entries[t.nextID] = pendingEntry{h: h, stream: stream}
	return t.nextID, true
}

// Remove withdraws a registration (an abandoned call, a canceled
// stream). ok is false when a terminal frame or a failure got there
// first: whoever removes the entry owns telling the handler.
func (t *Pending) Remove(id uint64) (h ResponseHandler, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	delete(t.entries, id)
	return e.h, ok
}

// Deliver routes one response frame to its handler; frames for unknown
// IDs are dropped.
func (t *Pending) Deliver(resp Response) {
	t.mu.Lock()
	e, ok := t.entries[resp.ID]
	if ok && (!e.stream || resp.Terminal()) {
		delete(t.entries, resp.ID)
	}
	t.mu.Unlock()
	if ok {
		e.h.HandleResponse(resp)
	}
}

// Serve reads response frames from c and delivers them until reading
// fails, and returns that error. An undecodable response counts: it
// names no request, so skipping it would strand the handler it was
// meant for. idle, when set, runs each time the responses buffered so
// far have all been delivered.
func (t *Pending) Serve(c *Conn, idle func()) error {
	var resp Response // one per loop: a frame decodes into it through a pointer, which would cost a heap Response per frame
	for {
		if err := c.ReadResponse(&resp); err != nil {
			return err
		}
		t.Deliver(resp)
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

// Fail ends the table: every registered handler receives resp under its
// own request ID — resp should be terminal (Done) — and later Adds are
// refused. Failing twice is harmless.
func (t *Pending) Fail(resp Response) {
	t.mu.Lock()
	entries := t.entries
	t.entries = map[uint64]pendingEntry{}
	t.failed = true
	t.mu.Unlock()
	for id, e := range entries {
		resp.ID = id
		e.h.HandleResponse(resp)
	}
}

// Failed reports whether Fail has run.
func (t *Pending) Failed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failed
}
