package netproto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Codec encodes and decodes length-prefixed protocol frames outside a
// Conn: only tests, the fuzzers and the benchmark's codec drill speak
// through it. Binary is what every connection speaks; a Conn frames with
// the same append and parse functions, in place in its own buffers.
//
// EncodeFrame writes the complete frame — 4-byte big-endian length plus
// payload — with a single Write call: marshal and oversize failures
// happen before any byte is written.
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

// JSON frames every payload as a JSON document: the retired protocol-v2
// data plane, which no connection speaks any more. It remains for the
// benchmark's codec drill and for tests that write what an old peer
// sends.
var JSON Codec = jsonCodec{}

// Binary is the protocol-v4 codec, the one a Conn speaks. Hot ops and
// the common response shape are encoded in a compact binary layout;
// everything else (the hello, admin ops, rich responses) falls back to
// JSON payloads inside the same frames. Decoders discriminate on the
// first payload byte: JSON always starts with '{', binary bodies never
// do.
var Binary Codec = binCodec{}

type jsonCodec struct{}

func (jsonCodec) Name() string                         { return "json" }
func (jsonCodec) EncodeFrame(w io.Writer, v any) error { return encodeFrame(w, false, v) }
func (jsonCodec) DecodeFrame(r io.Reader, v any) error { return decodeFrame(r, false, v) }

type binCodec struct{}

func (binCodec) Name() string                         { return "binary" }
func (binCodec) EncodeFrame(w io.Writer, v any) error { return encodeFrame(w, true, v) }
func (binCodec) DecodeFrame(r io.Reader, v any) error { return decodeFrame(r, true, v) }

// framePool recycles the scratch buffers of the paths that cannot frame
// in place: Codec's, and a Conn reading a frame larger than its read
// buffer. Buffers that grew beyond maxPooledBuf (a large response or a
// MaxFrame-sized request) are dropped instead of pinning megabytes in
// the pool.
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

// encodeFrame builds v's frame in a pooled buffer and writes it with a
// single Write.
func encodeFrame(w io.Writer, bin bool, v any) error {
	bp := getBuf()
	defer putBuf(bp)
	var err error
	switch m := v.(type) {
	case Envelope:
		*bp, err = appendEnvelopeFrame(*bp, bin, &m)
	case Response:
		*bp, err = appendResponseFrame(*bp, bin, &m)
	default:
		err = &FrameError{Err: fmt.Errorf("cannot frame a %T", v)}
	}
	if err != nil {
		return err
	}
	_, err = w.Write(*bp)
	return err
}

// decodeFrame reads one frame from r into a pooled buffer and parses it
// into v.
func decodeFrame(r io.Reader, bin bool, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n, err := frameLen(hdr[:])
	if err != nil {
		return err
	}
	bp, payload, err := readPooled(r, n)
	if err != nil {
		return err
	}
	defer putBuf(bp)
	switch dst := v.(type) {
	case *Envelope:
		return parseEnvelope(payload, bin, dst, nil)
	case *Response:
		return parseResponse(payload, bin, dst)
	}
	return &FrameError{Recoverable: true, Err: fmt.Errorf("cannot decode a frame into %T", v)}
}

// frameLen reads a frame header, refusing a length beyond MaxFrame.
func frameLen(hdr []byte) (int, error) {
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return 0, &FrameError{Err: fmt.Errorf("incoming frame of %d bytes exceeds limit", n)}
	}
	return int(n), nil
}

// readPooled reads an n-byte payload into a pooled buffer. The caller
// must putBuf the returned buffer when err is nil.
func readPooled(r io.Reader, n int) (*[]byte, []byte, error) {
	bp := getBuf()
	buf := *bp
	if cap(buf) < n {
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

// appendEnvelopeFrame appends env's frame — length header, then the
// payload — to buf: the binary layout when bin and the op has one, JSON
// otherwise. On failure (marshal, oversize) buf comes back at its
// original length, so a buffer of earlier frames is never torn.
func appendEnvelopeFrame(buf []byte, bin bool, env *Envelope) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	ok := false
	if bin {
		buf, ok = appendBinEnvelope(buf, env)
	}
	if !ok {
		// Cold path. The copy keeps env from escaping through the
		// marshaler's any; its typed body materializes here.
		e := *env
		var err error
		if e.Body == nil && (e.hasFile || e.val != nil) {
			body := e.val
			if e.hasFile {
				body = e.file
			}
			if e.Body, err = json.Marshal(body); err != nil {
				return buf[:start], &FrameError{Op: e.Op, ID: e.ID, Err: fmt.Errorf("marshal body: %w", err)}
			}
		}
		if buf, err = appendJSON(buf, e, e.Op, e.ID); err != nil {
			return buf[:start], err
		}
	}
	return endFrame(buf, start, env.Op, env.ID)
}

// appendResponseFrame is appendEnvelopeFrame for a response; rich
// responses stay JSON on either codec.
func appendResponseFrame(buf []byte, bin bool, resp *Response) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	ok := false
	if bin {
		buf, ok = appendBinResponse(buf, resp)
	}
	if !ok {
		var err error
		if buf, err = appendJSON(buf, *resp, "", resp.ID); err != nil { // the copy keeps resp from escaping
			return buf[:start], err
		}
	}
	return endFrame(buf, start, "", resp.ID)
}

// appendJSON appends v's JSON document to buf. Nothing is HTML-escaped:
// json.Marshal would rewrite a '&' in a raw body as \u0026, so a frame
// relayed through a decode and an encode would change its bytes.
func appendJSON(buf []byte, v any, op string, id uint64) ([]byte, error) {
	w := bytes.NewBuffer(buf)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return buf, &FrameError{Op: op, ID: id, Err: fmt.Errorf("marshal: %w", err)}
	}
	return bytes.TrimSuffix(w.Bytes(), []byte{'\n'}), nil
}

// endFrame stamps the length of the frame begun at start (header there,
// payload after it) — or, past MaxFrame, truncates the frame away.
func endFrame(buf []byte, start int, op string, id uint64) ([]byte, error) {
	n := len(buf) - start - 4
	if n > MaxFrame {
		return buf[:start], &FrameError{Op: op, ID: id, Err: fmt.Errorf("frame of %d bytes exceeds limit", n)}
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(n))
	return buf, nil
}

// isBinPayload reports whether a payload read on a bin connection is in
// the binary layout rather than the JSON fallback.
func isBinPayload(payload []byte, bin bool) bool {
	return bin && len(payload) > 0 && payload[0] != '{'
}

// parseEnvelope decodes a request payload into env, taking a binary
// request's names from names where it holds them. JSON merges into its
// target: callers that reuse env reset it first.
func parseEnvelope(payload []byte, bin bool, env *Envelope, names Names) error {
	if isBinPayload(payload, bin) {
		return decodeBinEnvelope(payload, env, names)
	}
	return unmarshalJSON(payload, env)
}

// parseResponse decodes a response payload into resp.
func parseResponse(payload []byte, bin bool, resp *Response) error {
	if isBinPayload(payload, bin) {
		return decodeBinResponse(payload, resp)
	}
	return unmarshalJSON(payload, resp)
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

// Binary wire format (protocol v4, unchanged since v3). Requests:
//
//	[opcode u8] [id uvarint] [per-op body]
//
//	open/release/estwait/bitrep:        [context string] [file string]
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
	binOpen byte = 1
	// 2 was wait, retired with the op (subscribe serves every wait) and
	// never to be reassigned: an old peer's frame must keep failing as
	// an unknown opcode, not parse as something else.
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

// appendBinEnvelope appends env's binary encoding to buf. ok is false
// when the op table gives the op no binary opcode or the body is not
// the kind its row declares (the caller falls back to JSON). Together
// with decodeBinEnvelope it is the op table's binary body codec; the
// sync annotations keep both halves field-complete.
//
//simfs:sync FileBody
//simfs:sync FilesBody
//simfs:sync UnsubscribeBody
func appendBinEnvelope(buf []byte, env *Envelope) ([]byte, bool) {
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
		if env.hasFile {
			kind = BodyFile
			buf = appendBinString(buf, env.file.Context)
			buf = appendBinString(buf, env.file.File)
		}
	}
	if kind != spec.Body {
		return buf[:start], false
	}
	return buf, true
}

// binRequestHead walks a binary request as far as routing needs: the
// opcode's row, the request ID and — for the ops whose body names files
// (BodyFile, BodyFiles) — the context, as the payload's own bytes. rest
// is the body after what was read. Its failures are decodeBinEnvelope's:
// recoverable, carrying the ID once it is read and the op once it is
// known.
func binRequestHead(p []byte) (spec *OpSpec, id uint64, ctx, rest []byte, err error) {
	fail := func(op, msg string) error {
		return &FrameError{Op: op, ID: id, Recoverable: true, Err: fmt.Errorf("binary request: %s", msg)}
	}
	code := p[0]
	var ok bool
	if id, rest, ok = getUvarint(p[1:]); !ok {
		return nil, 0, nil, nil, fail("", "truncated request id")
	}
	if int(code) >= len(opByBin) || opByBin[code] == nil {
		return nil, id, nil, nil, fail("", fmt.Sprintf("unknown opcode %#x", code))
	}
	spec = opByBin[code]
	if spec.Body == BodyFile || spec.Body == BodyFiles {
		if ctx, rest, ok = getBinBytes(rest); !ok {
			return nil, id, nil, nil, fail(spec.Name, "truncated context")
		}
	}
	return spec, id, ctx, rest, nil
}

// decodeBinEnvelope is appendBinEnvelope's inverse. Once the request ID
// is read every failure carries it (and the op), so the daemon's
// bad_frame reply reaches the call that sent the frame. The context and
// file names are names' strings where it holds them, copies otherwise
// (names may be nil).
//
//simfs:sync FileBody
//simfs:sync FilesBody
//simfs:sync UnsubscribeBody
func decodeBinEnvelope(p []byte, env *Envelope, names Names) error {
	spec, id, ctx, p, err := binRequestHead(p)
	if err != nil {
		return err
	}
	e := Envelope{ID: id, Op: spec.Name}
	fail := func(msg string) error {
		return &FrameError{Op: e.Op, ID: e.ID, Recoverable: true, Err: fmt.Errorf("binary request: %s", msg)}
	}
	var ok bool
	switch spec.Body {
	case BodyFile:
		var f []byte
		if f, p, ok = getBinBytes(p); !ok {
			return fail("truncated file")
		}
		e.file.File, e.step = names.file(ctx, f, &e.file.Context)
		if e.file.Context == "" {
			e.file.Context = string(ctx)
		}
		e.hasFile = true
	case BodyFiles:
		var b FilesBody
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
			var f []byte
			if f, p, ok = getBinBytes(p); !ok {
				return fail("truncated file list")
			}
			name, _ := names.file(ctx, f, &b.Context)
			b.Files = append(b.Files, name)
		}
		if b.Context == "" {
			b.Context = string(ctx)
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
func appendBinResponse(buf []byte, resp *Response) ([]byte, bool) {
	if resp.Names != nil || resp.Info != nil || resp.Stats != nil ||
		resp.Proto != nil || resp.Sched != nil || resp.Peers != nil {
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

// binResponse is a binary response walked but not materialized: the
// first flag byte, the numbers, and the strings as the payload's own
// bytes (empty when absent).
type binResponse struct {
	id                  uint64
	f1                  byte
	file, code, errText []byte
	est, count          uint64
	attempts, retry     uint64
}

// terminal is Response.Terminal of the walked response.
func (r *binResponse) terminal() bool {
	return r.f1&rfDone != 0 || (len(r.code) > 0 && len(r.file) == 0)
}

// walkBinResponse parses a binary response payload into r without
// copying a byte. decodeBinResponse materializes what it finds and a
// relaying Pending reads the ID and the terminal bit off it, so the two
// refuse exactly the same payloads.
func walkBinResponse(p []byte, r *binResponse) error {
	fail := func(msg string) error {
		return &FrameError{Recoverable: true, Err: fmt.Errorf("binary response: %s", msg)}
	}
	if p[0] != binResponseTag {
		return fail(fmt.Sprintf("tag %#x is not a response", p[0]))
	}
	var ok bool
	if r.id, p, ok = getUvarint(p[1:]); !ok {
		return fail("truncated response id")
	}
	if len(p) < 2 {
		return fail("truncated flags")
	}
	f2 := p[1]
	r.f1, p = p[0], p[2:]
	if r.f1&rfFile != 0 {
		if r.file, p, ok = getBinBytes(p); !ok {
			return fail("truncated file")
		}
	}
	if r.f1&rfEst != 0 {
		if r.est, p, ok = getUvarint(p); !ok {
			return fail("truncated est wait")
		}
	}
	if r.f1&rfCount != 0 {
		if r.count, p, ok = getUvarint(p); !ok {
			return fail("truncated count")
		}
	}
	if f2&rf2Err != 0 {
		if r.code, p, ok = getBinBytes(p); !ok {
			return fail("truncated error code")
		}
		if r.errText, p, ok = getBinBytes(p); !ok {
			return fail("truncated error text")
		}
	}
	if f2&rf2Retry != 0 {
		if r.attempts, p, ok = getUvarint(p); !ok {
			return fail("truncated attempts")
		}
		if r.retry, p, ok = getUvarint(p); !ok {
			return fail("truncated retry-after")
		}
	}
	_ = p // trailing bytes are ignored for forward compatibility
	return nil
}

func decodeBinResponse(p []byte, resp *Response) error {
	var r binResponse
	if err := walkBinResponse(p, &r); err != nil {
		return err
	}
	*resp = Response{
		ID:           r.id,
		OK:           r.f1&rfOK != 0,
		Available:    r.f1&rfAvailable != 0,
		Ready:        r.f1&rfReady != 0,
		Flag:         r.f1&rfFlag != 0,
		Done:         r.f1&rfDone != 0,
		File:         string(r.file),
		EstWaitNs:    int64(r.est),
		Count:        int(r.count),
		Code:         ErrCode(r.code),
		Err:          string(r.errText),
		Attempts:     int(r.attempts),
		RetryAfterNs: int64(r.retry),
	}
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

// getBinBytes returns a string's bytes as a slice of p.
func getBinBytes(p []byte) ([]byte, []byte, bool) {
	n, p, ok := getUvarint(p)
	if !ok || n > uint64(len(p)) {
		return nil, p, false
	}
	return p[:n], p[n:], true
}
