package netproto

import (
	"errors"
	"net"
	"sync"
)

// Listener is the accepting side's connection bookkeeping, shared by
// the daemon and the router: it binds, accepts, runs one handler
// goroutine per connection, and shuts down in order. The zero value is
// ready for Listen.
type Listener struct {
	ln     net.Listener
	mu     sync.Mutex
	conns  map[*Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Listen binds to addr (e.g. "127.0.0.1:7878"). Use port 0 for an
// ephemeral port; Addr reports the bound address.
func (l *Listener) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	l.ln = ln
	return nil
}

// Addr returns the bound address ("" before Listen).
func (l *Listener) Addr() string {
	if l.ln == nil {
		return ""
	}
	return l.ln.Addr().String()
}

// Serve accepts connections until Close and returns nil after a clean
// shutdown. Each connection — passed through wrap first, when set — is
// framed and handed to handle on its own goroutine; when handle returns
// its last replies are flushed and the connection is closed.
func (l *Listener) Serve(wrap func(net.Conn) net.Conn, handle func(*Conn)) error {
	if l.ln == nil {
		return errors.New("netproto: Serve before Listen")
	}
	for {
		nc, err := l.ln.Accept()
		if err != nil {
			l.mu.Lock()
			closed := l.closed
			l.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if wrap != nil {
			nc = wrap(nc)
		}
		c := NewConn(nc)
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			c.Close()
			return nil
		}
		if l.conns == nil {
			l.conns = map[*Conn]struct{}{}
		}
		l.conns[c] = struct{}{}
		l.mu.Unlock()
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			handle(c)
			_ = c.Flush() // the peer may already be gone
			c.Close()
			l.mu.Lock()
			delete(l.conns, c)
			l.mu.Unlock()
		}()
	}
}

// Close stops accepting, gives bye (when set) a last word on every live
// connection, closes them, and waits for their handlers to return.
func (l *Listener) Close(bye func(*Conn)) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	conns := make([]*Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	if l.ln != nil {
		l.ln.Close()
	}
	for _, c := range conns {
		if bye != nil {
			bye(c)
		}
		c.Close()
	}
	l.wg.Wait()
}
