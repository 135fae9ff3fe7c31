package netproto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinaryEnvelopeRoundTrip(t *testing.T) {
	cases := []struct {
		op   string
		body any
	}{
		{OpOpen, FileBody{Context: "clim", File: "clim_out_00000001.nc"}},
		{OpRelease, FileBody{Context: "c", File: "f"}},
		{OpEstWait, FileBody{Context: "c", File: "f"}},
		{OpBitrep, FileBody{Context: "c", File: "f"}},
		{OpAcquire, FilesBody{Context: "clim", Files: []string{"a", "b", "c"}}},
		{OpSubscribe, FilesBody{Context: "clim", Files: []string{"d"}}},
		{OpPrefetch, FilesBody{Context: "clim", Files: []string{}}},
		{OpUnsubscribe, UnsubscribeBody{SubID: 321}},
		{OpPing, nil},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		in := mustEnvelope(t, 99, tc.op, tc.body)
		if err := Binary.EncodeFrame(&buf, in); err != nil {
			t.Fatalf("%s: %v", tc.op, err)
		}
		// The hot path must actually be binary, not the JSON fallback.
		if payload := buf.Bytes()[4:]; payload[0] == '{' {
			t.Fatalf("%s encoded as JSON on the binary codec", tc.op)
		}
		var out Envelope
		if err := Binary.DecodeFrame(&buf, &out); err != nil {
			t.Fatalf("%s: decode: %v", tc.op, err)
		}
		if out.ID != 99 || out.Op != tc.op {
			t.Fatalf("%s: header mangled: %+v", tc.op, out)
		}
		if tc.body == nil {
			continue
		}
		switch want := tc.body.(type) {
		case FileBody:
			var got FileBody
			if err := out.Decode(&got); err != nil || got != want {
				t.Fatalf("%s: body %+v (%v), want %+v", tc.op, got, err, want)
			}
		case FilesBody:
			var got FilesBody
			if err := out.Decode(&got); err != nil || got.Context != want.Context || len(got.Files) != len(want.Files) {
				t.Fatalf("%s: body %+v (%v), want %+v", tc.op, got, err, want)
			}
		case UnsubscribeBody:
			var got UnsubscribeBody
			if err := out.Decode(&got); err != nil || got != want {
				t.Fatalf("%s: body %+v (%v), want %+v", tc.op, got, err, want)
			}
		}
	}
}

func TestBinaryResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{ID: 1, OK: true},
		{ID: 2, OK: true, Available: true, EstWaitNs: 13_000_000},
		{ID: 3, OK: true, Ready: true, File: "clim_out_00000007.nc"},
		{ID: 4, OK: true, Done: true, Count: 42},
		{ID: 5, Code: CodeBusy, Err: "context draining"},
		{ID: 6, OK: true, Flag: true},
		{ID: 7, Code: CodeFrame, Err: "bad frame"},
	}
	for _, in := range cases {
		var buf bytes.Buffer
		if err := Binary.EncodeFrame(&buf, in); err != nil {
			t.Fatalf("id %d: %v", in.ID, err)
		}
		if payload := buf.Bytes()[4:]; payload[0] != binResponseTag {
			t.Fatalf("id %d encoded as JSON on the binary codec", in.ID)
		}
		var out Response
		if err := Binary.DecodeFrame(&buf, &out); err != nil {
			t.Fatalf("id %d: decode: %v", in.ID, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
		}
	}
}

// Rich responses (hello, listings, stats, scheduler info) and cold ops
// fall back to JSON payloads inside the binary connection's frames, and
// the binary decoder sniffs them back out.
func TestBinaryCodecJSONFallback(t *testing.T) {
	var buf bytes.Buffer
	resp := Response{ID: 8, OK: true, Proto: &HelloInfo{Version: ProtoVersion, Caps: []string{CapBinary}}}
	if err := Binary.EncodeFrame(&buf, resp); err != nil {
		t.Fatal(err)
	}
	if payload := buf.Bytes()[4:]; payload[0] != '{' {
		t.Fatal("rich response did not fall back to JSON")
	}
	var out Response
	if err := Binary.DecodeFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.Proto == nil || out.Proto.Version != ProtoVersion {
		t.Fatalf("fallback round trip mangled: %+v", out)
	}

	buf.Reset()
	env := mustEnvelope(t, 9, OpSchedGet, nil)
	if err := Binary.EncodeFrame(&buf, env); err != nil {
		t.Fatal(err)
	}
	if payload := buf.Bytes()[4:]; payload[0] != '{' {
		t.Fatal("cold-path op did not fall back to JSON")
	}
	var outEnv Envelope
	if err := Binary.DecodeFrame(&buf, &outEnv); err != nil {
		t.Fatal(err)
	}
	if outEnv.ID != 9 || outEnv.Op != OpSchedGet {
		t.Fatalf("cold-path round trip mangled: %+v", outEnv)
	}
}

// The binary codec still parses a JSON payload naming a data-plane op —
// its JSON fallback is one parser for every op — but a session refuses
// one: ReadRequest answers bad_frame on the request's own ID and reads
// on.
func TestBinaryCodecReadsJSONFrames(t *testing.T) {
	var buf bytes.Buffer
	env := mustEnvelope(t, 4, OpOpen, FileBody{Context: "c", File: "f"})
	if err := JSON.EncodeFrame(&buf, env); err != nil {
		t.Fatal(err)
	}
	frame := bytes.Clone(buf.Bytes())
	var out Envelope
	if err := Binary.DecodeFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	var body FileBody
	if err := out.Decode(&body); err != nil || body.File != "f" {
		t.Fatalf("JSON frame on binary codec mangled: %+v (%v)", body, err)
	}

	w := &wire{}
	w.buf.Write(frame)
	if err := Binary.EncodeFrame(&w.buf, mustEnvelope(t, 5, OpPing, nil)); err != nil {
		t.Fatal(err)
	}
	c := NewConn(w)
	if err := c.ReadRequest(&out, nil); err != nil || out.ID != 5 || out.Op != OpPing {
		t.Fatalf("ReadRequest = %+v, %v; want the JSON open refused and the ping read", out, err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := Binary.DecodeFrame(&w.buf, &resp); err != nil || resp.ID != 4 || resp.Code != CodeFrame {
		t.Errorf("JSON open answered with %+v (%v), want bad_frame on id 4", resp, err)
	}
}

// Truncated binary bodies inside a complete frame are recoverable: the
// frame was fully consumed, so the stream stays aligned.
func TestBinaryTruncatedBodyRecoverable(t *testing.T) {
	var full bytes.Buffer
	env := mustEnvelope(t, 7, OpOpen, FileBody{Context: "clim", File: "file-name"})
	if err := Binary.EncodeFrame(&full, env); err != nil {
		t.Fatal(err)
	}
	frame := full.Bytes()
	// Cut the payload progressively short (re-stamping the header so the
	// frame itself stays complete) — every variant must fail recoverably.
	for cut := 1; cut < len(frame)-4; cut++ {
		payload := frame[4 : len(frame)-cut]
		var buf bytes.Buffer
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
		buf.Write(hdr[:])
		buf.Write(payload)
		// A good frame follows: after the recoverable error the stream
		// must still be aligned.
		if err := Binary.EncodeFrame(&buf, mustEnvelope(t, 8, OpPing, nil)); err != nil {
			t.Fatal(err)
		}
		var out Envelope
		err := Binary.DecodeFrame(&buf, &out)
		if err == nil {
			continue // a shorter-but-valid prefix (trailing bytes are lenient)
		}
		var fe *FrameError
		if !errors.As(err, &fe) || !fe.Recoverable {
			t.Fatalf("cut %d: want recoverable FrameError, got %v", cut, err)
		}
		if err := Binary.DecodeFrame(&buf, &out); err != nil || out.Op != OpPing {
			t.Fatalf("cut %d: stream misaligned after recoverable error: %v %+v", cut, err, out)
		}
	}
}

// An opcode the table does not know — one that never existed, or the
// retired wait's 2 — is refused recoverably and on the frame's own
// request ID, so the bad_frame reply reaches the call that sent it.
func TestBinaryUnknownOpcodeRecoverable(t *testing.T) {
	for _, code := range []byte{0x7F, 2} {
		var buf bytes.Buffer
		buf.Write([]byte{0, 0, 0, 6, code, 0x2A, 1, 'c', 1, 'f'})
		var out Envelope
		err := Binary.DecodeFrame(&buf, &out)
		var fe *FrameError
		if !errors.As(err, &fe) || !fe.Recoverable || fe.ID != 0x2A {
			t.Fatalf("opcode %#x: want a recoverable FrameError on id 42, got %v", code, err)
		}
	}
}

func TestBinaryOversizedFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	buf.Write(hdr[:])
	var out Envelope
	err := Binary.DecodeFrame(&buf, &out)
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("oversized frame should yield *FrameError, got %v", err)
	}
	if fe.Recoverable {
		t.Error("oversized frame marked recoverable — the stream cannot be realigned")
	}
	if !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("unexpected message: %v", err)
	}
}

// A dishonest file count (larger than the remaining payload could ever
// hold) must not size an allocation.
func TestBinaryFileCountBounded(t *testing.T) {
	payload := []byte{binAcquire, 1} // op + id
	payload = appendBinString(payload, "ctx")
	payload = binary.AppendUvarint(payload, 1<<40) // absurd count
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf.Write(hdr[:])
	buf.Write(payload)
	var out Envelope
	err := Binary.DecodeFrame(&buf, &out)
	var fe *FrameError
	if !errors.As(err, &fe) || !fe.Recoverable {
		t.Fatalf("dishonest count should be recoverable, got %v", err)
	}
}

func TestFrameBuffered(t *testing.T) {
	var wire bytes.Buffer
	if err := Binary.EncodeFrame(&wire, mustEnvelope(t, 1, OpPing, nil)); err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), wire.Bytes()...)

	br := bufio.NewReader(bytes.NewReader(nil))
	if FrameBuffered(br) {
		t.Error("empty reader reported a buffered frame")
	}
	// Two full frames back to back: after reading the first, the second
	// is still complete in the buffer.
	br = bufio.NewReader(bytes.NewReader(append(append([]byte(nil), frame...), frame...)))
	var env Envelope
	if err := Binary.DecodeFrame(br, &env); err != nil {
		t.Fatal(err)
	}
	if !FrameBuffered(br) {
		t.Error("complete buffered frame not detected")
	}
	if err := Binary.DecodeFrame(br, &env); err != nil {
		t.Fatal(err)
	}
	if FrameBuffered(br) {
		t.Error("drained reader still reports a buffered frame")
	}
	// A partial frame (header says more than what's buffered) must not
	// count: flushing is the only way to avoid deadlocking on it.
	br = bufio.NewReader(bytes.NewReader(frame[:len(frame)-1]))
	br.Peek(len(frame) - 1) // force the partial bytes into the buffer
	if FrameBuffered(br) {
		t.Error("partial frame reported as complete")
	}
}

// Property: any hot-op envelope survives the binary round trip exactly.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(id uint64, ctx string, files []string) bool {
		var buf bytes.Buffer
		in, _ := NewEnvelope(id, OpAcquire, FilesBody{Context: ctx, Files: files})
		if err := Binary.EncodeFrame(&buf, in); err != nil {
			var size int
			for _, f := range files {
				size += len(f)
			}
			return len(ctx)+size > MaxFrame/2 // only oversize may fail
		}
		var out Envelope
		if err := Binary.DecodeFrame(&buf, &out); err != nil {
			return false
		}
		if out.ID != id || out.Op != OpAcquire {
			return false
		}
		var body FilesBody
		if err := out.Decode(&body); err != nil || body.Context != ctx || len(body.Files) != len(files) {
			return false
		}
		for i := range files {
			if body.Files[i] != files[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The binary encoder writes each frame with exactly one Write call, so
// encoding into a shared outgoing buffer can never leave a torn frame.
func TestEncodeFrameSingleWrite(t *testing.T) {
	for _, codec := range []Codec{JSON, Binary} {
		for _, v := range []any{
			any(mustEnvelope(t, 1, OpOpen, FileBody{Context: "c", File: "f"})),
			any(Response{ID: 2, OK: true, Stats: &Stats{Hits: 1}}),
		} {
			cw := &countingWriter{}
			if err := codec.EncodeFrame(cw, v); err != nil {
				t.Fatal(err)
			}
			if cw.writes != 1 {
				t.Errorf("%s codec used %d writes for one frame, want 1", codec.Name(), cw.writes)
			}
		}
	}
}

type countingWriter struct{ writes int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return len(p), nil
}

var _ io.Writer = (*countingWriter)(nil)
