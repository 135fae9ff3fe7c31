package netproto

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"simfs/internal/sched"
)

// mustEnvelope builds an envelope or fails the test.
func mustEnvelope(t *testing.T, id uint64, op string, body any) Envelope {
	t.Helper()
	env, err := NewEnvelope(id, op, body)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestEnvelopeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := mustEnvelope(t, 7, OpOpen, FileBody{Context: "clim", File: "f1"})
	if err := JSON.EncodeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out Envelope
	if err := JSON.DecodeFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Op != in.Op {
		t.Errorf("round trip mismatch: %+v", out)
	}
	var body FileBody
	if err := out.Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Context != "clim" || body.File != "f1" {
		t.Errorf("body round trip mismatch: %+v", body)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Response{ID: 9, OK: true, File: "x", Done: true, EstWaitNs: 123,
		Info:  &ContextInfo{Name: "c", DeltaD: 5, Policy: "DCL"},
		Stats: &Stats{Hits: 3},
		Proto: &HelloInfo{Version: ProtoVersion, Caps: []string{CapAdmin}},
		Sched: &SchedInfo{Coalesce: true, TotalNodes: 4}}
	if err := JSON.EncodeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out Response
	if err := JSON.DecodeFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if !out.OK || out.File != "x" || !out.Done || out.EstWaitNs != 123 ||
		out.Info == nil || out.Info.DeltaD != 5 || out.Info.Policy != "DCL" ||
		out.Stats == nil || out.Stats.Hits != 3 ||
		out.Proto == nil || out.Proto.Version != ProtoVersion ||
		out.Sched == nil || !out.Sched.Coalesce || out.Sched.TotalNodes != 4 {
		t.Errorf("round trip mismatch: %+v", out)
	}
}

func TestErrorResponseCarriesCode(t *testing.T) {
	var buf bytes.Buffer
	in := Response{ID: 4, Code: CodeNoSuchContext, Err: "unknown context \"x\""}
	if err := JSON.EncodeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out Response
	if err := JSON.DecodeFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.Code != CodeNoSuchContext || out.Err == "" || out.OK {
		t.Errorf("structured error mangled: %+v", out)
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := uint64(0); i < 10; i++ {
		if err := JSON.EncodeFrame(&buf, Envelope{ID: i, Op: OpPing}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 10; i++ {
		var out Envelope
		if err := JSON.DecodeFrame(&buf, &out); err != nil {
			t.Fatal(err)
		}
		if out.ID != i {
			t.Fatalf("frame %d read out of order as %d", i, out.ID)
		}
	}
	var out Envelope
	if err := JSON.DecodeFrame(&buf, &out); err != io.EOF {
		t.Errorf("empty buffer should yield EOF, got %v", err)
	}
}

func TestOversizedIncomingFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	buf.Write(hdr[:])
	var out Envelope
	err := JSON.DecodeFrame(&buf, &out)
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

func TestOversizedOutgoingFrameRejected(t *testing.T) {
	big := Envelope{ID: 12, Op: strings.Repeat("x", MaxFrame)}
	err := JSON.EncodeFrame(io.Discard, big)
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("oversized outgoing frame should yield *FrameError, got %v", err)
	}
	if fe.ID != 12 {
		t.Errorf("FrameError lost the request ID: %+v", fe)
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	JSON.EncodeFrame(&buf, Envelope{ID: 1, Op: OpPing})
	raw := buf.Bytes()[:buf.Len()-3] // cut the payload short
	var out Envelope
	err := JSON.DecodeFrame(bytes.NewReader(raw), &out)
	if err == nil {
		t.Fatal("truncated frame accepted")
	}
	var fe *FrameError
	if errors.As(err, &fe) && fe.Recoverable {
		t.Error("truncated frame marked recoverable")
	}
}

func TestGarbagePayloadRecoverable(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 4)
	buf.Write(hdr[:])
	buf.WriteString("{{{{")
	// A well-formed frame follows the garbage one: after the recoverable
	// error the stream must still be aligned.
	JSON.EncodeFrame(&buf, Envelope{ID: 2, Op: OpPing})
	var out Envelope
	err := JSON.DecodeFrame(&buf, &out)
	var fe *FrameError
	if !errors.As(err, &fe) || !fe.Recoverable {
		t.Fatalf("garbage payload should yield a recoverable *FrameError, got %v", err)
	}
	if err := JSON.DecodeFrame(&buf, &out); err != nil || out.ID != 2 {
		t.Errorf("stream misaligned after recoverable error: %v %+v", err, out)
	}
}

func TestDecodeErrorCarriesOpAndID(t *testing.T) {
	env := mustEnvelope(t, 42, OpOpen, 17) // number body, not an object
	var body FileBody
	err := env.Decode(&body)
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("decode error should be a *FrameError, got %v", err)
	}
	if fe.Op != OpOpen || fe.ID != 42 {
		t.Errorf("decode error lost op/id context: %+v", fe)
	}
	if !strings.Contains(err.Error(), OpOpen) || !strings.Contains(err.Error(), "42") {
		t.Errorf("message should name op and id: %v", err)
	}
}

func TestMissingBodyIsError(t *testing.T) {
	env := Envelope{ID: 3, Op: OpOpen}
	var body FileBody
	if err := env.Decode(&body); err == nil {
		t.Error("missing body decoded without error")
	}
}

func TestLegacyRequestParsesAsEnvelope(t *testing.T) {
	// A v1 client frame — an untyped request bag — must decode as an
	// envelope (id + op survive) on either codec, so the daemon can answer
	// its CodeVersion refusal to the right ID.
	v1 := `{"id":5,"op":"ping","client":"old","files":["f"]}`
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(v1)))
	frame = append(frame, v1...)
	for _, codec := range []Codec{JSON, Binary} {
		var env Envelope
		if err := codec.DecodeFrame(bytes.NewReader(frame), &env); err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		if env.ID != 5 || env.Op != OpPing {
			t.Errorf("%s: legacy frame mangled: %+v", codec.Name(), env)
		}
	}
}

// Property: any envelope survives a round trip bit-exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(id uint64, op, ctx string, files []string) bool {
		var buf bytes.Buffer
		in, err := NewEnvelope(id, op, FilesBody{Context: ctx, Files: files})
		if err != nil {
			return false
		}
		if err := JSON.EncodeFrame(&buf, in); err != nil {
			var size int
			for _, f := range files {
				size += len(f)
			}
			return len(op)+len(ctx)+size > MaxFrame/2 // only oversize may fail
		}
		var out Envelope
		if err := JSON.DecodeFrame(&buf, &out); err != nil {
			return false
		}
		if out.ID != in.ID || out.Op != in.Op {
			return false
		}
		var body FilesBody
		if err := out.Decode(&body); err != nil {
			return false
		}
		if body.Context != ctx || len(body.Files) != len(files) {
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

// TestSchedWireGolden pins the scheduler control plane's JSON: SchedInfo
// and SchedSetBody are sched.Config and sched.Patch, and their tags must
// keep producing the bytes the hand-written mirror structs produced
// (the literals below are what the daemon and simfs-ctl sent before the
// mirrors were folded away). Fields an older peer still sends
// (preempt_sunk_cost, preempt_guided, demand_join) are ignored; a
// retired policy name is refused at decode.
func TestSchedWireGolden(t *testing.T) {
	for want, cfg := range map[string]SchedInfo{
		`{"coalesce":false,"priorities":false,"total_nodes":0,"preempt_policy":"off"}`: {},
		`{"coalesce":true,"priorities":true,"total_nodes":400,"preempt_policy":"youngest","drr_quantum":24}`: {
			Coalesce: true, Priorities: true, TotalNodes: 400, Preempt: sched.PreemptYoungest, DRRQuantum: 24},
	} {
		got, err := json.Marshal(cfg)
		if err != nil || string(got) != want {
			t.Errorf("sched-get reply = %s, %v; want %s", got, err, want)
		}
		var back SchedInfo
		if err := json.Unmarshal([]byte(want), &back); err != nil || back != cfg {
			t.Errorf("sched-get reply %s decoded to %+v, %v", want, back, err)
		}
	}

	on, nodes, off := true, 6, sched.PreemptOff
	for want, body := range map[string]SchedSetBody{
		`{}`:                  {},
		`{"priorities":true}`: {Priorities: &on},
		`{"coalesce":true,"total_nodes":6,"preempt_policy":"off","drr_quantum":6}`: {
			Coalesce: &on, TotalNodes: &nodes, Preempt: &off, DRRQuantum: &nodes},
	} {
		got, err := json.Marshal(body)
		if err != nil || string(got) != want {
			t.Errorf("sched-set body = %s, %v; want %s", got, err, want)
		}
	}

	var old SchedSetBody
	legacy := `{"total_nodes":3,"preempt_sunk_cost":0.8,"preempt_guided":true,"demand_join":true}`
	if err := json.Unmarshal([]byte(legacy), &old); err != nil || old.TotalNodes == nil || *old.TotalNodes != 3 {
		t.Errorf("body with retired fields = %+v, %v; want them ignored", old, err)
	}
	if err := json.Unmarshal([]byte(`{"preempt_policy":"cheapest"}`), &old); err == nil {
		t.Error(`preempt_policy "cheapest" decoded without error`)
	}
}
