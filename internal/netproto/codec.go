package netproto

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Codec encodes and decodes length-prefixed protocol frames. Both ends
// of a connection start on JSON (the hello exchange is always JSON) and
// may switch to Binary right after a successful CapBinary negotiation.
//
// EncodeFrame writes the complete frame — 4-byte big-endian length plus
// payload — with a single Write call, so codecs can encode into a
// shared outgoing buffer without ever leaving a partial frame behind:
// marshal and oversize failures happen before any byte is written.
//
// DecodeFrame reads exactly one frame into v (*Envelope or *Response).
// A complete frame with an undecodable payload yields a recoverable
// *FrameError — the stream is still aligned and the caller may answer
// CodeFrame and keep reading. Oversize frames yield a non-recoverable
// *FrameError; header/payload I/O errors (EOF, truncation) pass through
// untouched.
type Codec interface {
	Name() string
	EncodeFrame(w io.Writer, v any) error
	DecodeFrame(r io.Reader, v any) error
}

// JSON is the protocol-v2 codec: every payload is a JSON document. It
// also frames the hello exchange of every connection regardless of what
// gets negotiated afterwards.
var JSON Codec = jsonCodec{}

// Binary is the protocol-v3 fast-path codec. Hot ops and the common
// response shape are encoded in a compact binary layout; everything
// else (admin ops, rich responses) falls back to JSON payloads inside
// the same frames. Decoders discriminate on the first payload byte:
// JSON always starts with '{', binary bodies never do.
var Binary Codec = binCodec{}

// framePool recycles encode/decode scratch buffers. Buffers that grew
// beyond maxPooledBuf (a large response or a MaxFrame-sized request) are
// dropped instead of pinning megabytes in the pool.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

const maxPooledBuf = 64 << 10

func getBuf() *[]byte { return framePool.Get().(*[]byte) }

func putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		*bp = (*bp)[:0]
		framePool.Put(bp)
	}
}

// encodeJSON marshals v and writes it as one frame with a single Write.
// Envelopes built by NewEnvelope materialize their typed body here.
func encodeJSON(w io.Writer, v any) error {
	var op string
	var id uint64
	if env, ok := v.(Envelope); ok {
		op, id = env.Op, env.ID
		if env.Body == nil && env.val != nil {
			raw, err := json.Marshal(env.val)
			if err != nil {
				return &FrameError{Op: op, ID: id, Err: fmt.Errorf("marshal body: %w", err)}
			}
			env.Body = raw
			v = env
		}
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return &FrameError{Op: op, ID: id, Err: fmt.Errorf("marshal: %w", err)}
	}
	if len(payload) > MaxFrame {
		return &FrameError{Op: op, ID: id, Err: fmt.Errorf("frame of %d bytes exceeds limit", len(payload))}
	}
	bp := getBuf()
	buf := append((*bp)[:0], 0, 0, 0, 0)
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	_, werr := w.Write(buf)
	*bp = buf
	putBuf(bp)
	return werr
}

// finishFrame stamps the length header into a frame built in buf
// (payload starts at offset 4) and writes it with a single Write.
func finishFrame(w io.Writer, bp *[]byte, buf []byte, op string, id uint64) error {
	*bp = buf
	defer putBuf(bp)
	if len(buf)-4 > MaxFrame {
		return &FrameError{Op: op, ID: id, Err: fmt.Errorf("frame of %d bytes exceeds limit", len(buf)-4)}
	}
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	_, err := w.Write(buf)
	return err
}

// readPayload reads one frame header and payload into a pooled buffer.
// The caller must putBuf the returned buffer when err is nil.
func readPayload(r io.Reader) (*[]byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, nil, &FrameError{Err: fmt.Errorf("incoming frame of %d bytes exceeds limit", n)}
	}
	bp := getBuf()
	buf := *bp
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	*bp = buf
	if _, err := io.ReadFull(r, buf); err != nil {
		putBuf(bp)
		return nil, nil, err
	}
	return bp, buf, nil
}

func unmarshalJSON(payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return &FrameError{Recoverable: true, Err: fmt.Errorf("unmarshal: %w", err)}
	}
	return nil
}

// FrameBuffered reports whether r already holds at least one complete
// frame in its buffer. The server's read loop uses it to keep
// accumulating replies to a pipelined batch, flushing only when the
// next read would actually block; checking for a complete frame (not
// just any buffered bytes) keeps a partial frame from deadlocking both
// sides against each other.
func FrameBuffered(r *bufio.Reader) bool {
	if r.Buffered() < 4 {
		return false
	}
	hdr, err := r.Peek(4)
	if err != nil {
		return false
	}
	return int(binary.BigEndian.Uint32(hdr)) <= r.Buffered()-4
}

// jsonCodec frames JSON payloads (protocol v2).

type jsonCodec struct{}

func (jsonCodec) Name() string { return "json" }

func (jsonCodec) EncodeFrame(w io.Writer, v any) error { return encodeJSON(w, v) }

func (jsonCodec) DecodeFrame(r io.Reader, v any) error {
	bp, payload, err := readPayload(r)
	if err != nil {
		return err
	}
	defer putBuf(bp)
	return unmarshalJSON(payload, v)
}

// Binary wire format (protocol v3). Requests:
//
//	[opcode u8] [id uvarint] [per-op body]
//
//	open/wait/release/estwait/bitrep:   [context string] [file string]
//	acquire/subscribe/prefetch:         [context string] [count uvarint] [file string]...
//	unsubscribe:                        [sub-id uvarint]
//	ping:                               (no body)
//
// Responses:
//
//	[0xB1] [id uvarint] [flags1 u8] [flags2 u8] [optional fields]
//
//	flags1: OK, Available, Ready, Flag, Done, hasFile, hasEst, hasCount
//	flags2: hasErr, hasRetry
//	fields in order when flagged: file string, est-wait uvarint,
//	count uvarint, code string, err string, attempts uvarint,
//	retry-after-ns uvarint
//
// A string is [length uvarint][bytes]. Opcodes and the response tag
// never collide with '{' (0x7B), the first byte of every JSON payload.
// Trailing bytes after a well-formed body are ignored (room for
// forward-compatible extensions); any truncation inside the body is a
// recoverable FrameError since the frame itself was fully consumed.
const (
	binOpen        byte = 1
	binWait        byte = 2
	binRelease     byte = 3
	binEstWait     byte = 4
	binBitrep      byte = 5
	binAcquire     byte = 6
	binSubscribe   byte = 7
	binPrefetch    byte = 8
	binUnsubscribe byte = 9
	binPing        byte = 10

	binResponseTag byte = 0xB1
)

// Response flag bits.
const (
	rfOK byte = 1 << iota
	rfAvailable
	rfReady
	rfFlag
	rfDone
	rfFile
	rfEst
	rfCount
)

const (
	rf2Err byte = 1 << 0
	// rf2Retry flags the quarantine details of a failed response:
	// attempts uvarint + retry-after-ns uvarint, appended after the
	// error strings. Decoders that predate the flag skip the extra
	// bytes via the trailing-bytes rule.
	rf2Retry byte = 1 << 1
)

type binCodec struct{}

func (binCodec) Name() string { return "binary" }

func (binCodec) EncodeFrame(w io.Writer, v any) error {
	switch m := v.(type) {
	case Envelope:
		bp := getBuf()
		if buf, ok := appendBinEnvelope(append((*bp)[:0], 0, 0, 0, 0), m); ok {
			return finishFrame(w, bp, buf, m.Op, m.ID)
		}
		putBuf(bp)
	case Response:
		bp := getBuf()
		if buf, ok := appendBinResponse(append((*bp)[:0], 0, 0, 0, 0), m); ok {
			return finishFrame(w, bp, buf, "", m.ID)
		}
		putBuf(bp)
	}
	// Cold-path op, rich response, or a foreign type: JSON payload
	// inside the same framing.
	return encodeJSON(w, v)
}

func (binCodec) DecodeFrame(r io.Reader, v any) error {
	bp, payload, err := readPayload(r)
	if err != nil {
		return err
	}
	defer putBuf(bp)
	if len(payload) == 0 || payload[0] == '{' {
		return unmarshalJSON(payload, v)
	}
	switch dst := v.(type) {
	case *Envelope:
		return decodeBinEnvelope(payload, dst)
	case *Response:
		return decodeBinResponse(payload, dst)
	default:
		return &FrameError{Recoverable: true, Err: fmt.Errorf("binary frame for JSON-only target %T", v)}
	}
}

// appendBinEnvelope appends env's binary encoding to buf. ok is false
// when the op table gives the op no binary opcode or the body is not
// the kind its row declares (the caller falls back to JSON). Together
// with decodeBinEnvelope it is the op table's binary body codec; the
// sync annotations keep both halves field-complete.
//
//simfs:sync FileBody
//simfs:sync FilesBody
//simfs:sync UnsubscribeBody
func appendBinEnvelope(buf []byte, env Envelope) ([]byte, bool) {
	spec := opByName[env.Op]
	if spec == nil || spec.Bin == 0 || env.Body != nil {
		// Pre-marshaled JSON bodies travel as JSON: re-encoding would
		// need a parse hop, defeating the point.
		return buf, false
	}
	start := len(buf)
	buf = append(buf, spec.Bin)
	buf = binary.AppendUvarint(buf, env.ID)
	kind := BodyOther
	switch body := env.val.(type) {
	case FileBody:
		kind = BodyFile
		buf = appendBinString(buf, body.Context)
		buf = appendBinString(buf, body.File)
	case FilesBody:
		kind = BodyFiles
		buf = appendBinString(buf, body.Context)
		buf = binary.AppendUvarint(buf, uint64(len(body.Files)))
		for _, f := range body.Files {
			buf = appendBinString(buf, f)
		}
	case UnsubscribeBody:
		kind = BodyUnsubscribe
		buf = binary.AppendUvarint(buf, body.SubID)
	case nil:
		kind = BodyNone
	}
	if kind != spec.Body {
		return buf[:start], false
	}
	return buf, true
}

// decodeBinEnvelope is appendBinEnvelope's inverse. Once the request ID
// is read every failure carries it (and the op), so the daemon's
// bad_frame reply reaches the call that sent the frame.
//
//simfs:sync FileBody
//simfs:sync FilesBody
//simfs:sync UnsubscribeBody
func decodeBinEnvelope(p []byte, env *Envelope) error {
	var e Envelope
	fail := func(msg string) error {
		return &FrameError{Op: e.Op, ID: e.ID, Recoverable: true, Err: fmt.Errorf("binary request: %s", msg)}
	}
	code := p[0]
	if int(code) >= len(opByBin) || opByBin[code] == nil {
		return fail(fmt.Sprintf("unknown opcode %#x", code))
	}
	spec := opByBin[code]
	id, p, ok := getUvarint(p[1:])
	if !ok {
		return fail("truncated request id")
	}
	e.ID, e.Op = id, spec.Name
	switch spec.Body {
	case BodyFile:
		var b FileBody
		if b.Context, p, ok = getBinString(p); !ok {
			return fail("truncated context")
		}
		if b.File, p, ok = getBinString(p); !ok {
			return fail("truncated file")
		}
		e.val = b
	case BodyFiles:
		var b FilesBody
		if b.Context, p, ok = getBinString(p); !ok {
			return fail("truncated context")
		}
		var n uint64
		if n, p, ok = getUvarint(p); !ok {
			return fail("truncated file count")
		}
		// Every file needs at least its length byte: a count beyond the
		// remaining payload cannot be honest, and must not size an
		// allocation.
		if n > uint64(len(p)) {
			return fail("file count exceeds payload")
		}
		b.Files = make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			var f string
			if f, p, ok = getBinString(p); !ok {
				return fail("truncated file list")
			}
			b.Files = append(b.Files, f)
		}
		e.val = b
	case BodyUnsubscribe:
		var b UnsubscribeBody
		if b.SubID, p, ok = getUvarint(p); !ok {
			return fail("truncated sub id")
		}
		e.val = b
	}
	_ = p // trailing bytes are ignored for forward compatibility
	*env = e
	return nil
}

// appendBinResponse appends resp's binary encoding to buf. ok is false
// for rich responses (names/info/stats/proto/sched/peers), which stay
// JSON.
func appendBinResponse(buf []byte, resp Response) ([]byte, bool) {
	if resp.Names != nil || resp.Info != nil || resp.Stats != nil ||
		resp.Proto != nil || resp.Sched != nil || resp.Peers != nil ||
		resp.Autoscale != nil {
		return buf, false
	}
	var f1, f2 byte
	if resp.OK {
		f1 |= rfOK
	}
	if resp.Available {
		f1 |= rfAvailable
	}
	if resp.Ready {
		f1 |= rfReady
	}
	if resp.Flag {
		f1 |= rfFlag
	}
	if resp.Done {
		f1 |= rfDone
	}
	if resp.File != "" {
		f1 |= rfFile
	}
	if resp.EstWaitNs != 0 {
		f1 |= rfEst
	}
	if resp.Count != 0 {
		f1 |= rfCount
	}
	if resp.Code != "" || resp.Err != "" {
		f2 |= rf2Err
	}
	if resp.Attempts != 0 || resp.RetryAfterNs != 0 {
		f2 |= rf2Retry
	}
	buf = append(buf, binResponseTag)
	buf = binary.AppendUvarint(buf, resp.ID)
	buf = append(buf, f1, f2)
	if f1&rfFile != 0 {
		buf = appendBinString(buf, resp.File)
	}
	if f1&rfEst != 0 {
		buf = binary.AppendUvarint(buf, uint64(resp.EstWaitNs))
	}
	if f1&rfCount != 0 {
		buf = binary.AppendUvarint(buf, uint64(resp.Count))
	}
	if f2&rf2Err != 0 {
		buf = appendBinString(buf, string(resp.Code))
		buf = appendBinString(buf, resp.Err)
	}
	if f2&rf2Retry != 0 {
		buf = binary.AppendUvarint(buf, uint64(resp.Attempts))
		buf = binary.AppendUvarint(buf, uint64(resp.RetryAfterNs))
	}
	return buf, true
}

func decodeBinResponse(p []byte, resp *Response) error {
	fail := func(msg string) error {
		return &FrameError{Recoverable: true, Err: fmt.Errorf("binary response: %s", msg)}
	}
	if p[0] != binResponseTag {
		return fail(fmt.Sprintf("tag %#x is not a response", p[0]))
	}
	id, p, ok := getUvarint(p[1:])
	if !ok {
		return fail("truncated response id")
	}
	if len(p) < 2 {
		return fail("truncated flags")
	}
	f1, f2 := p[0], p[1]
	p = p[2:]
	r := Response{
		ID:        id,
		OK:        f1&rfOK != 0,
		Available: f1&rfAvailable != 0,
		Ready:     f1&rfReady != 0,
		Flag:      f1&rfFlag != 0,
		Done:      f1&rfDone != 0,
	}
	if f1&rfFile != 0 {
		if r.File, p, ok = getBinString(p); !ok {
			return fail("truncated file")
		}
	}
	if f1&rfEst != 0 {
		var est uint64
		if est, p, ok = getUvarint(p); !ok {
			return fail("truncated est wait")
		}
		r.EstWaitNs = int64(est)
	}
	if f1&rfCount != 0 {
		var cnt uint64
		if cnt, p, ok = getUvarint(p); !ok {
			return fail("truncated count")
		}
		r.Count = int(cnt)
	}
	if f2&rf2Err != 0 {
		var code string
		if code, p, ok = getBinString(p); !ok {
			return fail("truncated error code")
		}
		r.Code = ErrCode(code)
		if r.Err, p, ok = getBinString(p); !ok {
			return fail("truncated error text")
		}
	}
	if f2&rf2Retry != 0 {
		var v uint64
		if v, p, ok = getUvarint(p); !ok {
			return fail("truncated attempts")
		}
		r.Attempts = int(v)
		if v, p, ok = getUvarint(p); !ok {
			return fail("truncated retry-after")
		}
		r.RetryAfterNs = int64(v)
	}
	_ = p // trailing bytes are ignored for forward compatibility
	*resp = r
	return nil
}

func getUvarint(p []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, p, false
	}
	return v, p[n:], true
}

func appendBinString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func getBinString(p []byte) (string, []byte, bool) {
	n, p, ok := getUvarint(p)
	if !ok || n > uint64(len(p)) {
		return "", p, false
	}
	return string(p[:n]), p[n:], true
}
