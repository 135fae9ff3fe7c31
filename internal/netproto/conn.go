package netproto

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
)

// readBufSize sizes a connection's read buffer; flushThreshold bounds
// how many encoded bytes accumulate before an enqueue flushes on its
// own.
const (
	readBufSize    = 32 << 10
	flushThreshold = 32 << 10
)

// Conn is one framed connection — the only place frames are buffered,
// flushed and read, on either end. Frames are encoded straight onto the
// write buffer and leave in a single conn.Write per flush, so however
// many frames queued cost one syscall; incoming frames are parsed out
// of the read buffer's own bytes. A Conn is a single transport
// generation: a failed write closes it (the reader then sees the loss)
// and it is never redialed in place — owners that reconnect swap in a
// fresh Conn, so no frame straddles two generations.
//
// Requests and responses have their own entry points, taking *Envelope
// and *Response: nothing on the frame path holds either in an any, so
// queueing or reading a frame allocates only what the frame's strings
// need. The pointers are not retained.
//
// Any number of goroutines may write; one goroutine reads.
type Conn struct {
	nc net.Conn
	br *bufio.Reader
	// names resolves the names of decoded requests; set before reading.
	names Names

	wmu sync.Mutex
	// wbuf accumulates encoded frames between flushes. A frame is
	// appended in place and truncated away again if its encoding fails,
	// so the buffer never holds a torn frame.
	wbuf []byte
}

// NewConn frames nc.
func NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, br: bufio.NewReaderSize(nc, readBufSize)}
}

// Names looks up a request's context and file name, both as the bytes
// that crossed the wire: ok means it holds both strings, byte for byte
// equal to ctx and file, and the decoder uses them instead of copying,
// and step, file's, in the envelope (Envelope.Step). ctx and file alias
// the read buffer and are valid only during the call.
type Names func(ctx, file []byte) (ctxName, fileName string, step int, ok bool)

// file returns file as a string, with its step: n's, when n holds it
// with ctx — and then *ctxName is set to n's ctx — or a copy and 0.
func (n Names) file(ctx, file []byte, ctxName *string) (string, int) {
	if n != nil {
		if c, f, step, ok := n(ctx, file); ok {
			*ctxName = c
			return f, step
		}
	}
	return string(file), 0
}

// SetNames makes the requests ReadRequest decodes take their names from
// names where it holds them. The reading goroutine calls it before its
// read loop.
func (c *Conn) SetNames(names Names) { c.names = names }

// RemoteAddr returns the peer's network address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// Close closes the transport; frames still buffered are dropped.
func (c *Conn) Close() error { return c.nc.Close() }

// EnqueueRequest encodes env into the write buffer without flushing:
// the frame rides until Flush, a Send or the buffer passing
// flushThreshold. The error is always an encode failure: env was not
// buffered and the frames queued earlier are intact. A failed threshold
// flush is not reported — it closes the connection, which the reader
// observes.
func (c *Conn) EnqueueRequest(env *Envelope) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var err error
	if c.wbuf, err = appendEnvelopeFrame(c.wbuf, true, env); err != nil {
		return err
	}
	c.flushIfFull()
	return nil
}

// EnqueuePayload queues a frame carrying payload — a frame's payload
// read raw off another connection, relayed as it arrived — without
// flushing (see EnqueueRequest). The payload is copied.
func (c *Conn) EnqueuePayload(payload []byte) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = append(binary.BigEndian.AppendUint32(c.wbuf, uint32(len(payload))), payload...)
	c.flushIfFull()
}

// EnqueueResponse is EnqueueRequest for a response.
func (c *Conn) EnqueueResponse(resp *Response) error { return c.writeResponse(resp, true, false) }

// SendResponse encodes resp and flushes it with everything queued
// before it: the path for frames nobody flushes later (asynchronous
// pushes).
func (c *Conn) SendResponse(resp *Response) error { return c.writeResponse(resp, true, true) }

// writeResponse encodes resp, as JSON unless bin (for Accept's replies,
// which every protocol version must read), and flushes when asked.
func (c *Conn) writeResponse(resp *Response, bin, flush bool) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var err error
	if c.wbuf, err = appendResponseFrame(c.wbuf, bin, resp); err != nil {
		return err
	}
	if flush {
		return c.flushLocked()
	}
	c.flushIfFull()
	return nil
}

// Flush writes every buffered frame in one conn.Write.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.flushLocked()
}

func (c *Conn) flushIfFull() {
	if len(c.wbuf) >= flushThreshold {
		_ = c.flushLocked()
	}
}

func (c *Conn) flushLocked() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	_, err := c.nc.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	if err != nil {
		c.nc.Close()
	}
	return err
}

// nextFrame returns the next frame's payload; the caller parses it and
// then calls frameDone with what nextFrame returned. A frame that fits
// the read buffer — every data-plane frame does — is handed out as the
// reader's own bytes (pooled is nil); a larger one is copied into a
// pooled buffer.
func (c *Conn) nextFrame() (payload []byte, pooled *[]byte, err error) {
	hdr, err := c.br.Peek(4)
	if err != nil {
		return nil, nil, c.midFrame(err)
	}
	n, err := frameLen(hdr)
	if err != nil {
		return nil, nil, err
	}
	if 4+n <= c.br.Size() {
		frame, err := c.br.Peek(4 + n)
		if err != nil {
			return nil, nil, c.midFrame(err)
		}
		return frame[4:], nil, nil
	}
	_, _ = c.br.Discard(4) // peeked above: cannot fail
	pooled, payload, err = readPooled(c.br, n)
	return payload, pooled, err
}

// midFrame turns the EOF of a stream that ends inside a frame into
// io.ErrUnexpectedEOF: only a stream ending between frames is a clean
// close.
func (c *Conn) midFrame(err error) error {
	if err == io.EOF && c.br.Buffered() > 0 {
		return io.ErrUnexpectedEOF
	}
	return err
}

// frameDone releases the frame nextFrame returned.
func (c *Conn) frameDone(payload []byte, pooled *[]byte) {
	if pooled != nil {
		putBuf(pooled)
		return
	}
	_, _ = c.br.Discard(4 + len(payload)) // peeked by nextFrame: cannot fail
}

// ReadResponse reads exactly one response frame into resp, which it
// resets first (the JSON decoder merges into its target).
func (c *Conn) ReadResponse(resp *Response) error {
	*resp = Response{}
	payload, pooled, err := c.nextFrame()
	if err != nil {
		return err
	}
	err = parseResponse(payload, true, resp)
	c.frameDone(payload, pooled)
	return err
}

// ForwardFunc is offered every request a forwarding reader can route
// by its context: a binary frame of an op whose body names files
// (BodyFile, BodyFiles), read no further than that context, and a
// decoded JSON frame of an op without an opcode whose body names one.
// It receives the op row, the request ID, the context and the whole
// payload as the client sent it, for EnqueuePayload, and reports
// whether it took the request; one it declines is decoded and returned
// by the read. ctx and payload are valid only during the call.
type ForwardFunc func(spec OpSpec, id uint64, ctx, payload []byte) bool

// readEnvelope reads the next decodable request frame and reports
// whether its payload was JSON. idle runs before a read that would
// block, which is where the accepting side flushes its replies to a
// pipelined batch with one write; FrameBuffered insists on a complete
// frame, so a half-received one cannot deadlock both ends. fwd, when
// set, is offered the frames a ForwardFunc is, and reading continues
// past each one it takes. A complete frame with an undecodable payload
// leaves the stream aligned: it is answered with CodeFrame and reading
// continues. Every other error ends the connection.
func (c *Conn) readEnvelope(env *Envelope, idle func(), fwd ForwardFunc) (isJSON bool, err error) {
	for {
		if idle != nil && !FrameBuffered(c.br) {
			idle()
		}
		payload, pooled, err := c.nextFrame()
		if err != nil {
			return false, err
		}
		isJSON = !isBinPayload(payload, true)
		forwarded := false
		if fwd != nil && !isJSON {
			forwarded, err = forwardBin(payload, fwd)
		}
		if err == nil && !forwarded {
			err = parseEnvelope(payload, true, env, c.names)
			if err == nil && fwd != nil && isJSON {
				forwarded = forwardJSON(env, payload, fwd)
			}
		}
		c.frameDone(payload, pooled)
		if forwarded {
			continue
		}
		if err == nil {
			return isJSON, nil
		}
		var fe *FrameError // escapes: declared off the per-frame path
		if !errors.As(err, &fe) || !fe.Recoverable {
			return false, err
		}
		if err := c.SendResponse(&Response{ID: fe.ID, Code: CodeFrame, Err: err.Error()}); err != nil {
			return false, err
		}
	}
}

// forwardBin offers fwd a binary request undecoded when its op's body
// names files; forwarded is false for every other op and for one fwd
// declines, which the caller decodes. Only the prefix routing reads is
// checked: an unknown opcode, a truncated ID or a truncated context
// fails as decodeBinEnvelope would, and whatever follows the context is
// the receiver's to refuse.
func forwardBin(payload []byte, fwd ForwardFunc) (forwarded bool, err error) {
	row, id, ctx, _, err := binRequestHead(payload)
	if err != nil || (Ops[row-1].Body != BodyFile && Ops[row-1].Body != BodyFiles) {
		return false, err
	}
	return fwd(Ops[row-1], id, ctx, payload), nil
}

// forwardJSON offers fwd a decoded JSON request when its op has no
// opcode and its body names a routing context. Hello (whose body names
// none) and the opcoded ops, which ReadRequestForward refuses as JSON,
// are never offered.
func forwardJSON(env *Envelope, payload []byte, fwd ForwardFunc) bool {
	row := env.Row()
	if row < 0 || Ops[row].Bin != 0 {
		return false
	}
	ctx, err := env.RoutingContext()
	return err == nil && fwd(Ops[row], env.ID, []byte(ctx), payload)
}

// Accept runs the accepting half of the handshake and returns the
// peer's hello. The first decodable frame must be a hello at
// ProtoVersion or newer that asks for CapBinary; a newer peer is
// clamped down to ProtoVersion. Anything else — a pre-versioned (v1)
// client, a v2 or v3 hello, one without CapBinary, a foreign peer — is
// refused with CodeVersion on the frame's own ID, and the error tells
// the caller to close. A hello that does not decode, or that names no
// client (core reads the empty name as "no client"), is answered
// bad_request and the peer may send another. The reply advertises caps
// plus CapBinary. It and every refusal go out as JSON, the one dialect
// every protocol version reads; after it both directions speak binary.
// who names the accepting program ("daemon", "router") in refusals.
func (c *Conn) Accept(caps []string, who string) (HelloBody, error) {
	for {
		var env Envelope
		if _, err := c.readEnvelope(&env, nil, nil); err != nil {
			return HelloBody{}, err
		}
		refuse := func(err error) (HelloBody, error) {
			_ = c.writeResponse(&Response{ID: env.ID, Code: CodeVersion, Err: err.Error()}, false, true) // closing either way
			return HelloBody{}, err
		}
		if env.Op != OpHello {
			return refuse(fmt.Errorf("protocol handshake required: first frame must be %q (%s speaks protocol %d)",
				OpHello, who, ProtoVersion))
		}
		var hb HelloBody
		err := env.Decode(&hb)
		if err == nil && (hb.Version < ProtoVersion || !HasCap(hb.Caps, CapBinary)) {
			return refuse(fmt.Errorf("peer speaks protocol %d with caps %v; %s requires protocol %d with %q",
				hb.Version, hb.Caps, who, ProtoVersion, CapBinary))
		}
		if err == nil && hb.Client == "" {
			err = errors.New("hello names no client")
		}
		if err != nil {
			if err := c.writeResponse(&Response{ID: env.ID, Code: CodeBadRequest, Err: err.Error()}, false, true); err != nil {
				return HelloBody{}, err
			}
			continue
		}
		hb.Version = ProtoVersion
		// Copy: caps is usually the caller's shared table.
		info := &HelloInfo{Version: ProtoVersion, Caps: append(slices.Clone(caps), CapBinary)}
		return hb, c.writeResponse(&Response{ID: env.ID, OK: true, Proto: info}, false, true)
	}
}

// ReadRequest reads the next request for the accepting side's dispatch,
// after Accept; idle is the flush-when-idle hook (see readEnvelope). Two
// JSON frames are refused on their own ID and reading continues: a
// second hello (bad_request) would rewrite the session's client identity
// under running streams and orphan the first client's state at
// disconnect cleanup; a data-plane op — one with a binary opcode — gets
// bad_frame, as it travels binary only. A binary frame pays one test.
func (c *Conn) ReadRequest(env *Envelope, idle func()) error {
	return c.ReadRequestForward(env, idle, nil)
}

// ReadRequestForward is ReadRequest for a reader that forwards rather
// than serves (the federation router): the requests a ForwardFunc is
// offered go to fwd as the client's bytes, and only the ones it
// declines and the rest reach env.
func (c *Conn) ReadRequestForward(env *Envelope, idle func(), fwd ForwardFunc) error {
	for {
		isJSON, err := c.readEnvelope(env, idle, fwd)
		if err != nil || !isJSON {
			return err
		}
		var resp Response
		switch row := env.Row(); {
		case env.Op == OpHello:
			resp = Response{ID: env.ID, Code: CodeBadRequest, Err: "duplicate hello: the handshake already completed"}
		case row >= 0 && Ops[row].Bin != 0:
			resp = Response{ID: env.ID, Code: CodeFrame,
				Err: fmt.Sprintf("op %q sent as JSON: after the hello it travels binary", env.Op)}
		default:
			return nil
		}
		if err := c.EnqueueResponse(&resp); err != nil {
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
// hello goes out in JSON as request id and the peer's HelloInfo comes
// back; from there the connection speaks binary. ctx bounds the TCP
// connect and the exchange. A peer that refuses, answers with a
// pre-versioned code-less error, or grants less than ProtoVersion with
// CapBinary yields a *HelloError.
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

// hello is synchronous: no read loop runs yet.
func (c *Conn) hello(id uint64, hello HelloBody) (HelloInfo, error) {
	var resp Response
	err := c.EnqueueRequest(&Envelope{ID: id, Op: OpHello, val: hello})
	if err == nil {
		err = c.Flush()
	}
	if err == nil {
		err = c.ReadResponse(&resp)
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
	case resp.Proto == nil || resp.Proto.Version < ProtoVersion || !HasCap(resp.Proto.Caps, CapBinary):
		// A v2 or v3 daemon, or one started without the binary codec.
		return HelloInfo{}, &HelloError{Code: CodeVersion,
			Msg: fmt.Sprintf("daemon granted %+v; client requires protocol %d with %q", resp.Proto, ProtoVersion, CapBinary)}
	}
	return *resp.Proto, nil
}

// HasCap reports whether caps contains want.
func HasCap(caps []string, want string) bool { return slices.Contains(caps, want) }
