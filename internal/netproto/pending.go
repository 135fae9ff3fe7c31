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
// A relaying table (NewRelayPending) also holds relays: requests
// forwarded on behalf of a client of another connection, answered by
// re-framing each response onto that connection under the client's own
// request ID — a binary response byte for byte, without decoding it.
//
// Handlers run on the delivering goroutine, outside the table's lock.
type Pending struct {
	mu      sync.Mutex
	nextID  uint64
	entries map[uint64]pendingEntry
	failed  bool

	// relay is the connection relays answer on and ended what runs when
	// a relayed stream is over; both nil on a table that relays nothing.
	relay *Conn
	ended func(clientID uint64)
}

// pendingEntry is a handler's registration or, with h nil, a relay's:
// client is the request ID its frames go back under.
type pendingEntry struct {
	h      ResponseHandler
	client uint64
	stream bool // registered until a terminal frame, not just the first
}

// NewPending returns an empty table whose first ID is 1.
func NewPending() *Pending {
	return &Pending{entries: map[uint64]pendingEntry{}}
}

// NewRelayPending is NewPending for a table that also relays (AddRelay)
// onto the connection to. ended runs, on the delivering goroutine, once
// a relayed stream's terminal frame is queued on to or the table has
// failed it.
func NewRelayPending(to *Conn, ended func(clientID uint64)) *Pending {
	t := NewPending()
	t.relay, t.ended = to, ended
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
	return t.add(pendingEntry{h: h, stream: stream})
}

// AddRelay registers a relay of the request clientID of the relay
// connection under a fresh request ID. Its responses need no handler:
// each is queued (not flushed) on the relay connection under clientID. ok
// is false once the table has failed.
func (t *Pending) AddRelay(clientID uint64, stream bool) (id uint64, ok bool) {
	return t.add(pendingEntry{client: clientID, stream: stream})
}

func (t *Pending) add(e pendingEntry) (uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failed {
		return 0, false
	}
	t.nextID++
	t.entries[t.nextID] = e
	return t.nextID, true
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

// deliver routes one decoded response frame to its handler or relay;
// frames for unknown IDs are dropped.
func (t *Pending) deliver(resp Response) {
	e, ok := t.take(resp.ID, resp.Terminal(), false)
	switch {
	case !ok:
	case e.h != nil:
		e.h.HandleResponse(resp)
	default:
		resp.ID = e.client
		t.relayed(e, resp.Terminal(), t.relay.EnqueueResponse(&resp))
	}
}

// relayRaw relays a binary response payload undecoded when its ID names
// a relay: the payload goes onto the relay connection renumbered to the
// client's ID. relayed is false for every other ID — a handler's, or
// one nobody awaits — which the caller decodes. A payload the walk
// refuses fails as it would decoded.
func (t *Pending) relayRaw(payload []byte) (relayed bool, err error) {
	var r binResponse
	if err := walkBinResponse(payload, &r); err != nil {
		return false, err
	}
	terminal := r.terminal()
	e, ok := t.take(r.id, terminal, true)
	if ok {
		t.relayed(e, terminal, t.relay.EnqueueRenumbered(payload, e.client))
	}
	return ok, nil
}

// relayed finishes a frame queued for relay e. A frame that could not be
// queued closes the relay connection — its request would otherwise wait
// forever, and the client sees the loss — and a stream's terminal frame
// ends the stream.
func (t *Pending) relayed(e pendingEntry, terminal bool, err error) {
	if err != nil {
		t.relay.Close()
	}
	if e.stream && terminal {
		t.ended(e.client)
	}
}

// Serve reads response frames from c and delivers them until reading
// fails, and returns that error. An undecodable response counts: it
// names no request, so skipping it would strand the handler it was
// meant for. A binary frame answering a relay is relayed without being
// decoded. idle, when set, runs each time the responses buffered so far
// have all been delivered.
func (t *Pending) Serve(c *Conn, idle func()) error {
	var resp Response // one per loop: a frame decodes into it through a pointer, which would cost a heap Response per frame
	for {
		payload, pooled, err := c.nextFrame()
		if err != nil {
			return err
		}
		relayed := false
		if t.relay != nil && isBinPayload(payload, true) {
			relayed, err = t.relayRaw(payload)
		}
		if err == nil && !relayed {
			resp = Response{} // the JSON decoder merges into its target
			err = parseResponse(payload, true, &resp)
		}
		c.frameDone(payload, pooled)
		if err != nil {
			return err
		}
		if !relayed {
			t.deliver(resp)
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

// Fail ends the table: every registered handler receives resp under its
// own request ID, every relay under its client's, flushed — resp should
// be terminal (Done) — and later Adds are refused. Failing twice is
// harmless.
func (t *Pending) Fail(resp Response) {
	t.mu.Lock()
	entries := t.entries
	t.entries = map[uint64]pendingEntry{}
	t.failed = true
	t.mu.Unlock()
	relayed := false
	for id, e := range entries {
		if e.h != nil {
			resp.ID = id
			e.h.HandleResponse(resp)
			continue
		}
		resp.ID = e.client
		t.relayed(e, resp.Terminal(), t.relay.EnqueueResponse(&resp))
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
