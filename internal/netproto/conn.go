package netproto

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
)

// readBufSize sizes a connection's read buffer; flushThreshold bounds
// how many encoded bytes accumulate before Enqueue flushes on its own.
const (
	readBufSize    = 32 << 10
	flushThreshold = 32 << 10
)

// Conn is one framed connection — the only place frames are buffered,
// flushed and read, on either end. Outgoing frames are encoded into a
// write buffer and leave in a single conn.Write per flush, so however
// many frames queued cost one syscall. A Conn is a single transport
// generation: a failed write closes it (the reader then sees the loss)
// and it is never redialed in place — owners that reconnect swap in a
// fresh Conn, so no frame straddles two generations.
//
// Any number of goroutines may write; one goroutine reads.
type Conn struct {
	nc net.Conn
	br *bufio.Reader
	// codec starts as JSON and flips to Binary at most once, inside a
	// handshake on the reading goroutine, under wmu: the reader uses it
	// unlocked, writers under wmu.
	codec Codec

	wmu sync.Mutex
	// wbuf accumulates encoded frames between flushes. EncodeFrame
	// appends a complete frame with one Write and fails before writing
	// anything, so the buffer never holds a torn frame.
	wbuf bytes.Buffer
}

// NewConn frames nc. The connection speaks JSON until a handshake
// (Accept, or Dial's hello) negotiates otherwise.
func NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, br: bufio.NewReaderSize(nc, readBufSize), codec: JSON}
}

// Codec returns the codec the handshake settled on.
func (c *Conn) Codec() Codec { return c.codec }

// RemoteAddr returns the peer's network address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// Close closes the transport; frames still buffered are dropped.
func (c *Conn) Close() error { return c.nc.Close() }

// Enqueue encodes v (an Envelope or a Response) into the write buffer
// without flushing: the frame rides until Flush, Send or the buffer
// passing flushThreshold. The error is always an encode failure: v was
// not buffered and the frames queued earlier are intact. A failed
// threshold flush is not reported — it closes the connection, which
// the reader observes.
func (c *Conn) Enqueue(v any) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.codec.EncodeFrame(&c.wbuf, v); err != nil {
		return err
	}
	if c.wbuf.Len() >= flushThreshold {
		_ = c.flushLocked()
	}
	return nil
}

// Send encodes v and flushes it with everything queued before it: the
// path for frames nobody flushes later (asynchronous pushes, handshake
// frames).
func (c *Conn) Send(v any) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.codec.EncodeFrame(&c.wbuf, v); err != nil {
		return err
	}
	return c.flushLocked()
}

// Flush writes every buffered frame in one conn.Write.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.flushLocked()
}

func (c *Conn) flushLocked() error {
	if c.wbuf.Len() == 0 {
		return nil
	}
	_, err := c.nc.Write(c.wbuf.Bytes())
	c.wbuf.Reset()
	if err != nil {
		c.nc.Close()
	}
	return err
}

// ReadFrame reads exactly one frame into v (*Envelope or *Response).
func (c *Conn) ReadFrame(v any) error { return c.codec.DecodeFrame(c.br, v) }

// readEnvelope reads the next decodable request frame. idle runs before
// a read that would block, which is where the accepting side flushes
// its replies to a pipelined batch with one write; FrameBuffered
// insists on a complete frame, so a half-received one cannot deadlock
// both ends. A complete frame with an undecodable payload leaves the
// stream aligned: it is answered with CodeFrame and reading continues.
// Every other error ends the connection.
func (c *Conn) readEnvelope(env *Envelope, idle func()) error {
	for {
		if idle != nil && !FrameBuffered(c.br) {
			idle()
		}
		// JSON decoding merges into its target: start from zero so a
		// refused frame's fields cannot leak into the next one.
		*env = Envelope{}
		err := c.codec.DecodeFrame(c.br, env)
		if err == nil {
			return nil
		}
		var fe *FrameError // escapes: declared off the per-frame path
		if !errors.As(err, &fe) || !fe.Recoverable {
			return err
		}
		if err := c.Send(Response{ID: fe.ID, Code: CodeFrame, Err: err.Error()}); err != nil {
			return err
		}
	}
}

// Accept runs the accepting half of the handshake and returns the
// peer's hello with Version replaced by the negotiated one. The first
// decodable frame must be a hello: anything else — a pre-versioned (v1)
// client, a foreign peer — is refused with CodeVersion, as is a hello
// below MinProtoVersion; the error tells the caller to close. A newer
// peer is clamped down to ProtoVersion. The reply, always JSON,
// advertises caps plus CapBinary when allowBinary; the connection flips
// to the Binary codec only when that is allowed, the negotiated version
// is at least 3 and the peer asked. who names the accepting program
// ("daemon", "router") in refusals.
func (c *Conn) Accept(caps []string, allowBinary bool, who string) (HelloBody, error) {
	for {
		var env Envelope
		if err := c.readEnvelope(&env, nil); err != nil {
			return HelloBody{}, err
		}
		refuse := func(err error) (HelloBody, error) {
			_ = c.Send(Response{ID: env.ID, Code: CodeVersion, Err: err.Error()}) // closing either way
			return HelloBody{}, err
		}
		if env.Op != OpHello {
			return refuse(fmt.Errorf("protocol handshake required: first frame must be %q (%s speaks protocol %d)",
				OpHello, who, ProtoVersion))
		}
		var hb HelloBody
		if err := env.Decode(&hb); err != nil {
			if err := c.Send(Response{ID: env.ID, Code: CodeBadRequest, Err: err.Error()}); err != nil {
				return HelloBody{}, err
			}
			continue
		}
		if hb.Version < MinProtoVersion {
			return refuse(fmt.Errorf("peer speaks protocol %d; %s requires %d..%d",
				hb.Version, who, MinProtoVersion, ProtoVersion))
		}
		hb.Version = min(hb.Version, ProtoVersion)
		if allowBinary {
			// Copy: caps is usually the caller's shared table.
			caps = append(slices.Clone(caps), CapBinary)
		}
		err := c.Send(Response{ID: env.ID, OK: true, Proto: &HelloInfo{Version: hb.Version, Caps: caps}})
		if allowBinary && hb.Version >= 3 && HasCap(hb.Caps, CapBinary) {
			// The reply is already on the wire in JSON, so the flip cannot
			// reframe it; everything after speaks binary both ways.
			c.wmu.Lock()
			c.codec = Binary
			c.wmu.Unlock()
		}
		return hb, err
	}
}

// ReadRequest reads the next request for the accepting side's dispatch,
// after Accept; idle is the flush-when-idle hook (see readEnvelope). A
// second hello is refused here and reading continues: it would rewrite
// the session's client identity under running wait and pump goroutines
// and orphan the first client's state at disconnect cleanup.
func (c *Conn) ReadRequest(env *Envelope, idle func()) error {
	for {
		if err := c.readEnvelope(env, idle); err != nil || env.Op != OpHello {
			return err
		}
		if err := c.Enqueue(Response{ID: env.ID, Code: CodeBadRequest,
			Err: "duplicate hello: the handshake already completed"}); err != nil {
			return err
		}
	}
}

// HelloError is a handshake the peer answered but refused, or answered
// in a dialect too old to continue with.
type HelloError struct {
	Code ErrCode
	Msg  string
}

// Error implements the error interface.
func (e *HelloError) Error() string {
	return fmt.Sprintf("netproto: handshake refused: %s (%s)", e.Msg, e.Code)
}

// Dial connects to addr and runs the dialing half of the handshake:
// hello goes out in JSON as request id, the peer's HelloInfo comes
// back, and the connection flips to the Binary codec when hello asked
// for CapBinary, the peer advertises it and the negotiated version is
// at least 3. ctx bounds the TCP connect and the exchange. A peer that
// refuses — or answers with a pre-versioned, code-less error — yields a
// *HelloError.
func Dial(ctx context.Context, addr string, id uint64, hello HelloBody) (*Conn, HelloInfo, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, HelloInfo{}, err
	}
	c := NewConn(nc)
	// Cancellation interrupts the blocking exchange by closing the
	// connection: before the handshake it carries nothing worth keeping.
	stop := context.AfterFunc(ctx, func() { nc.Close() })
	info, err := c.hello(id, hello)
	if !stop() || err != nil {
		nc.Close()
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		return nil, HelloInfo{}, err
	}
	return c, info, nil
}

// hello is synchronous — no read loop runs yet — so the codec can
// switch after it without racing a concurrent reader.
func (c *Conn) hello(id uint64, hello HelloBody) (HelloInfo, error) {
	var resp Response
	err := c.Send(Envelope{ID: id, Op: OpHello, val: hello})
	if err == nil {
		err = c.ReadFrame(&resp)
	}
	switch {
	case err != nil:
		return HelloInfo{}, fmt.Errorf("handshake: %w", err)
	case resp.Err != "" && resp.Code == "":
		// A v1-style untyped error: the peer predates the hello op.
		return HelloInfo{}, &HelloError{Code: CodeVersion,
			Msg: fmt.Sprintf("daemon does not speak the versioned protocol (client speaks %d): %s",
				ProtoVersion, resp.Err)}
	case resp.Err != "":
		return HelloInfo{}, &HelloError{Code: resp.Code, Msg: resp.Err}
	case resp.Proto == nil || resp.Proto.Version < MinProtoVersion:
		return HelloInfo{}, &HelloError{Code: CodeVersion, Msg: "daemon sent no usable protocol version"}
	}
	if resp.Proto.Version >= 3 && HasCap(hello.Caps, CapBinary) && HasCap(resp.Proto.Caps, CapBinary) {
		c.codec = Binary
	}
	return *resp.Proto, nil
}

// HasCap reports whether caps contains want.
func HasCap(caps []string, want string) bool { return slices.Contains(caps, want) }
