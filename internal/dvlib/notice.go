package dvlib

import (
	"sync/atomic"

	"simfs/internal/netproto"
)

// notice is the client side of a missed open's second answer: the daemon
// answers a miss at once and, on the same request ID, once more when the
// re-simulation decides the file's fate. When the first answer reports
// the miss, the call's table entry hands over to the client's notice for
// the file, which WaitAvailable then blocks on instead of subscribing.
// Several opens of one file before it is ready share one notice; the
// first terminal answer decides it.
//
// A notice lives in Client.notices until WaitAvailable takes it or a
// release of the file drops it, so a client that never waits keeps
// nothing; the request table holds it until its terminal frame.
type notice struct {
	// ch receives one token when resp is set. It comes from tokens, and
	// the WaitAvailable that received the token returns it: by then
	// nothing sends on it again, as done is set.
	ch   chan struct{}
	resp netproto.Response
	done atomic.Bool
}

// HandleResponse records the notice; later ones (a second open's) are
// dropped.
func (n *notice) HandleResponse(resp *netproto.Response) {
	if !n.done.CompareAndSwap(false, true) {
		return
	}
	n.resp = *resp
	n.ch <- struct{}{}
}

// lost reports whether the notice never came from the daemon: the
// connection failed or a reconnect cut it. The file's state is then
// asked for afresh.
func (n *notice) lost() bool { return !n.resp.OK && n.resp.Code == "" }

// awaitNotice hands open id's later frames to the file's notice. It runs
// on the read loop, from the call's HandleResponse, before the caller of
// the open can wait.
func (c *Client) awaitNotice(id uint64, file netproto.FileBody) {
	c.nmu.Lock()
	n := c.notices[file]
	if n == nil || n.done.Load() {
		n = &notice{ch: tokens.Get().(chan struct{})}
		if c.notices == nil {
			c.notices = map[netproto.FileBody]*notice{}
		}
		c.notices[file] = n
		c.nnotices.Store(int32(len(c.notices)))
	}
	c.nmu.Unlock()
	c.calls.Hand(id, n)
}

// takeNotice removes and returns the file's notice; nil when there is
// none.
func (c *Client) takeNotice(file netproto.FileBody) *notice {
	if c.nnotices.Load() == 0 {
		return nil
	}
	c.nmu.Lock()
	defer c.nmu.Unlock()
	n := c.notices[file]
	delete(c.notices, file)
	c.nnotices.Store(int32(len(c.notices)))
	return n
}

// abandon withdraws call id from the table. When the call is an open
// whose miss already handed its ID to a notice, the notice is told it is
// lost, so a WaitAvailable blocked on it asks the daemon afresh.
func (c *Client) abandon(id uint64) {
	if h, ok := c.calls.Remove(id); ok {
		if n, isNotice := h.(*notice); isNotice {
			n.HandleResponse(&netproto.Response{ID: id, Err: "request withdrawn", Done: true})
		}
	}
}
