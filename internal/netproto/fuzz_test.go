package netproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"simfs/internal/model"
	"simfs/internal/sched"
)

// seedFrames returns one JSON frame per envelope shape the protocol has
// spoken: the hello handshake, every typed per-op payload, a legacy (v1)
// request and a response — plus a bodyless ping. They seed the fuzz
// corpus of the Binary codec's JSON fallback (see FuzzFrameRoundTrip and
// TestRegenerateFuzzCorpus). The hello, the control plane and the rich
// response are JSON on every session; the data-plane ops — those with a
// binary opcode — and the v1 frame are what an old peer sends: a session
// parses them with this same fallback, then refuses them (ReadRequest's
// bad_frame, Accept's version_mismatch).
func seedFrames() ([][]byte, error) {
	tv, nv, pp := true, 16, sched.PreemptYoungest
	mc := &model.Context{Name: "fz", Grid: model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: 32}, OutputBytes: 64}
	envs := []struct {
		op   string
		body any
	}{
		{OpHello, HelloBody{Version: ProtoVersion, Client: "fuzz", Caps: []string{CapAdmin, CapWatch}}},
		{OpPing, nil}, // refused as JSON: it has a binary opcode
		{OpContexts, nil},
		{OpContextInfo, CtxBody{Context: "fz"}},
		{OpOpen, FileBody{Context: "fz", File: "fz_out_00000001.nc"}}, // refused as JSON, like every op below with an opcode
		// The retired wait op, as an old peer still sends it: an envelope
		// like any other, refused by the daemon as an unknown op.
		{"wait", FileBody{Context: "fz", File: "fz_out_00000002.nc"}},
		{OpRelease, FileBody{Context: "fz", File: "fz_out_00000001.nc"}},
		{OpAcquire, FilesBody{Context: "fz", Files: []string{"a.nc", "b.nc"}}},
		{OpEstWait, FileBody{Context: "fz", File: "fz_out_00000003.nc"}},
		{OpBitrep, FileBody{Context: "fz", File: "fz_out_00000004.nc"}},
		{OpRegSum, ChecksumBody{Context: "fz", File: "fz_out_00000005.nc", Sum: 0xdeadbeef}},
		{OpStats, CtxBody{Context: "fz"}},
		{OpRescan, CtxBody{Context: "fz"}},
		{OpPrefetch, FilesBody{Context: "fz", Files: []string{"c.nc"}}},
		{OpSubscribe, FilesBody{Context: "fz", Files: []string{"d.nc", "e.nc"}}},
		{OpUnsubscribe, UnsubscribeBody{SubID: 9}},
		{OpSchedGet, nil},
		{OpSchedSet, SchedSetBody{Coalesce: &tv, TotalNodes: &nv, Preempt: &pp, DRRQuantum: &nv}},
		{OpCachePolicySet, CachePolicyBody{Context: "fz", Policy: "LIRS"}},
		{OpCtxRegister, CtxRegisterBody{Context: mc, Policy: "DCL", InitialSim: true}},
		{OpCtxDeregister, CtxBody{Context: "fz"}},
		{OpDrain, CtxBody{Context: "fz"}},
		{OpResume, CtxBody{Context: "fz"}},
	}
	var frames [][]byte
	for i, e := range envs {
		env, err := NewEnvelope(uint64(i+1), e.op, e.body)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := JSON.EncodeFrame(&buf, env); err != nil {
			return nil, err
		}
		frames = append(frames, buf.Bytes())
	}
	// A v1 frame and a response frame: both must parse as envelopes
	// without tripping the reader.
	v1 := `{"id":99,"op":"open","client":"old","context":"fz","files":["f"]}`
	frames = append(frames, append(binary.BigEndian.AppendUint32(nil, uint32(len(v1))), v1...))
	// The two answers of an open: a hit's, which is Done, and a miss's
	// terminal notice, here a failure with its retry details.
	for _, resp := range []Response{
		{ID: 3, Code: CodeBusy, Err: "context draining",
			Proto: &HelloInfo{Version: ProtoVersion}, Sched: &SchedInfo{Coalesce: true}},
		{ID: 4, OK: true, Available: true, Done: true},
		{ID: 5, Code: CodeFailed, Err: "re-simulation failed", Attempts: 2, RetryAfterNs: 5_000_000_000, Done: true},
	} {
		var buf bytes.Buffer
		if err := JSON.EncodeFrame(&buf, resp); err != nil {
			return nil, err
		}
		frames = append(frames, buf.Bytes())
	}
	return frames, nil
}

// FuzzFrameRoundTrip feeds raw bytes to the parse/append pair a
// connection runs — the Binary codec with its JSON fallback — as a
// request: whatever decodes must re-encode and decode to the same
// envelope, and whatever fails must fail safely — recoverable errors
// only for complete frames, never a panic, never a misaligned stream.
func FuzzFrameRoundTrip(f *testing.F) {
	frames, err := seedFrames()
	if err != nil {
		f.Fatal(err)
	}
	for _, fr := range frames {
		f.Add(fr)
	}
	f.Add([]byte{0, 0, 0, 4, '{', '{', '{', '{'}) // recoverable garbage
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})         // oversize header

	f.Fuzz(func(t *testing.T, data []byte) {
		var env Envelope
		err := Binary.DecodeFrame(bytes.NewReader(data), &env)
		if err != nil {
			var fe *FrameError
			if errors.As(err, &fe) && fe.Recoverable && len(data) < 4 {
				t.Fatalf("short input %x yielded a recoverable error", data)
			}
			return
		}
		var buf bytes.Buffer
		if err := Binary.EncodeFrame(&buf, env); err != nil {
			// Only a re-encoded frame exceeding MaxFrame may fail (JSON
			// escaping can grow the payload past the limit).
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("re-encode of a decoded envelope failed oddly: %v", err)
			}
			return
		}
		var env2 Envelope
		if err := Binary.DecodeFrame(&buf, &env2); err != nil {
			t.Fatalf("re-read of a re-encoded envelope failed: %v", err)
		}
		if env2.ID != env.ID || env2.Op != env.Op || !bytes.Equal(env2.Body, env.Body) ||
			env2.file != env.file || env2.hasFile != env.hasFile || !reflect.DeepEqual(env2.val, env.val) {
			t.Fatalf("round trip mismatch:\n in: %d %q %s\nout: %d %q %s",
				env.ID, env.Op, env.Body, env2.ID, env2.Op, env2.Body)
		}
	})
}

// binSeedFrames returns one binary-encoded frame per hot-op shape plus
// the common response shapes, and one JSON-inside-binary fallback frame.
// They seed FuzzBinaryFrame's corpus.
func binSeedFrames() ([][]byte, error) {
	var frames [][]byte
	add := func(v any) error {
		var buf bytes.Buffer
		if err := Binary.EncodeFrame(&buf, v); err != nil {
			return err
		}
		frames = append(frames, append([]byte(nil), buf.Bytes()...))
		return nil
	}
	envs := []struct {
		op   string
		body any
	}{
		{OpOpen, FileBody{Context: "fz", File: "fz_out_00000001.nc"}},
		{OpOpen, FileBody{Context: "fz", File: "fz_out_00000002.nc"}}, // re-stamped below
		{OpRelease, FileBody{Context: "fz", File: "fz_out_00000001.nc"}},
		{OpEstWait, FileBody{Context: "fz", File: "fz_out_00000003.nc"}},
		{OpBitrep, FileBody{Context: "fz", File: "fz_out_00000004.nc"}},
		{OpAcquire, FilesBody{Context: "fz", Files: []string{"a.nc", "b.nc"}}},
		{OpSubscribe, FilesBody{Context: "fz", Files: []string{"d.nc"}}},
		{OpPrefetch, FilesBody{Context: "fz", Files: []string{}}},
		{OpUnsubscribe, UnsubscribeBody{SubID: 9}},
		{OpPing, nil},
	}
	for i, e := range envs {
		env, err := NewEnvelope(uint64(i+1), e.op, e.body)
		if err != nil {
			return nil, err
		}
		if err := add(env); err != nil {
			return nil, err
		}
	}
	// The retired wait, as an old peer still sends it: an open's body
	// under opcode 2, which the decoder must refuse as unknown —
	// recoverably, on the frame's own ID.
	frames[1][4] = 2
	for _, resp := range []Response{
		{ID: 1, OK: true},
		{ID: 2, OK: true, Available: true, EstWaitNs: 13_000_000},
		{ID: 3, OK: true, Ready: true, File: "fz_out_00000007.nc"},
		{ID: 4, OK: true, Done: true, Count: 3},
		{ID: 5, Code: CodeBusy, Err: "context draining"},
		// An open's answers: a hit, Done at once; a miss, then its
		// notice — ready, or failed with the retry details.
		{ID: 7, OK: true, Available: true, Done: true},
		{ID: 8, OK: true, EstWaitNs: 13_000_000},
		{ID: 8, OK: true, Ready: true, Done: true},
		{ID: 9, Code: CodeFailed, Err: "re-simulation failed", Attempts: 2, RetryAfterNs: 5_000_000_000, Done: true},
		// A rich response falls back to JSON inside the binary stream:
		// seed the sniffing path too.
		{ID: 6, OK: true, Proto: &HelloInfo{Version: ProtoVersion, Caps: []string{CapBinary}}},
	} {
		if err := add(resp); err != nil {
			return nil, err
		}
	}
	return frames, nil
}

// FuzzBinaryFrame feeds raw bytes to the binary decoder, as an envelope
// and as a response. Whatever decodes must reach an encode fixed point —
// re-encoding the decoded value and decoding it again reproduces the
// same bytes — and whatever fails must fail safely: recoverable errors
// only for complete frames, never a panic.
func FuzzBinaryFrame(f *testing.F) {
	frames, err := binSeedFrames()
	if err != nil {
		f.Fatal(err)
	}
	for _, fr := range frames {
		f.Add(fr)
	}
	f.Add([]byte{0, 0, 0, 2, 0x7F, 0x01})         // unknown opcode
	f.Add([]byte{0, 0, 0, 2, 0xB1, 0x01})         // truncated response flags
	f.Add([]byte{0, 0, 0, 1, 0x01})               // open with no id
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})         // oversize header
	f.Add([]byte{0, 0, 0, 4, '{', '{', '{', '{'}) // recoverable JSON garbage

	fixedPoint := func(t *testing.T, data []byte, v1, v2 any, enc func(any) ([]byte, error), dec func([]byte, any) error) {
		err := dec(data, v1)
		if err != nil {
			var fe *FrameError
			if errors.As(err, &fe) && fe.Recoverable && len(data) < 4 {
				t.Fatalf("short input %x yielded a recoverable error", data)
			}
			return
		}
		b1, err := enc(v1)
		if err != nil {
			// Only a re-encoded frame exceeding MaxFrame may fail.
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("re-encode of a decoded value failed oddly: %v", err)
			}
			return
		}
		if err := dec(b1, v2); err != nil {
			t.Fatalf("re-read of a re-encoded frame failed: %v\nframe: %x", err, b1)
		}
		b2, err := enc(v2)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("encode fixed point broken:\nb1: %x\nb2: %x", b1, b2)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		encEnv := func(v any) ([]byte, error) {
			var buf bytes.Buffer
			err := Binary.EncodeFrame(&buf, *v.(*Envelope))
			return buf.Bytes(), err
		}
		decEnv := func(b []byte, v any) error {
			return Binary.DecodeFrame(bytes.NewReader(b), v)
		}
		var e1, e2 Envelope
		fixedPoint(t, data, &e1, &e2, encEnv, decEnv)

		encResp := func(v any) ([]byte, error) {
			var buf bytes.Buffer
			err := Binary.EncodeFrame(&buf, *v.(*Response))
			return buf.Bytes(), err
		}
		var r1, r2 Response
		fixedPoint(t, data, &r1, &r2, encResp, decEnv)

		if len(data) > 4 {
			checkRelay(t, data[4:])
			checkNames(t, data[4:])
		}
	})
}

// checkRelay holds what a relay reads of a binary payload to what the
// decoders read of it: a request's routing prefix names the decoded
// op, ID and context, and a response's walk its ID and terminal bit.
// (Refusals agree by construction: each decoder starts with the partial
// parse.)
func checkRelay(t *testing.T, p []byte) {
	if !isBinPayload(p, true) {
		return
	}
	var env Envelope
	if decodeBinEnvelope(p, &env, nil) == nil {
		spec, id, ctx, _, err := binRequestHead(p)
		want := env.file.Context
		if b, ok := env.val.(FilesBody); ok {
			want = b.Context
		}
		if err != nil || id != env.ID || spec.Name != env.Op || string(ctx) != want {
			t.Fatalf("routing prefix of %x reads %v %d %q (%v), the decoder %s %d %q", p, spec, id, ctx, err, env.Op, env.ID, want)
		}
	}
	var resp Response
	if decodeBinResponse(p, &resp) == nil {
		var w binResponse
		if err := walkBinResponse(p, &w); err != nil || w.id != resp.ID || w.terminal() != resp.Terminal() {
			t.Fatalf("walk of %x reads id %d terminal %v (%v), the decoder %+v", p, w.id, w.terminal(), err, resp)
		}
	}
}

// checkNames holds a binary request's decode to one answer whatever the
// Names it consults says: none, one answering every lookup with copies,
// one answering only some, and one never answering all decode the same
// envelope, but for the step Names resolved the file to, or fail with
// the same error. The step is held apart: the envelope of a FileBody
// request carries what Names reported for its file, and every other
// envelope — a declined name, a FilesBody, a refused frame — carries 0.
func checkNames(t *testing.T, p []byte) {
	if !isBinPayload(p, true) {
		return
	}
	var want Envelope
	wantErr := decodeBinEnvelope(p, &want, nil)
	if want.Step() != 0 {
		t.Fatalf("%x decodes without Names to step %d, want 0", p, want.Step())
	}
	for _, names := range []struct {
		what string
		// step is what the Names reports for file, and whether it holds it.
		step func(file []byte) (int, bool)
	}{
		{"copies", func(file []byte) (int, bool) { return len(file) + 1, true }},
		{"even-length files", func(file []byte) (int, bool) { return len(file) + 1, len(file)%2 == 0 }},
		{"never", func([]byte) (int, bool) { return 0, false }},
	} {
		reported := 0
		lookup := func(ctx, file []byte) (string, string, int, bool) {
			step, ok := names.step(file)
			if reported = 0; ok {
				reported = step
			}
			return string(ctx), string(file), step, ok
		}
		var got Envelope
		err := decodeBinEnvelope(p, &got, lookup)
		step := got.Step()
		got.step = 0
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(err, wantErr) {
			t.Fatalf("%x decodes with Names %s to %+v (%v), without to %+v (%v)", p, names.what, got, err, want, wantErr)
		}
		if _, isFile := got.File(); !isFile || err != nil {
			reported = 0
		}
		if step != reported {
			t.Fatalf("%x decodes with Names %s to step %d, want %d", p, names.what, step, reported)
		}
	}
}

// TestRegenerateFuzzCorpus rewrites the committed seed corpora under
// testdata/fuzz/ from seedFrames and binSeedFrames. Run with
// SIMFS_REGEN_CORPUS=1 after changing the protocol surface; otherwise it
// verifies the committed corpora are present.
func TestRegenerateFuzzCorpus(t *testing.T) {
	corpora := []struct {
		fuzzer string
		gen    func() ([][]byte, error)
	}{
		{"FuzzFrameRoundTrip", seedFrames},
		{"FuzzBinaryFrame", binSeedFrames},
	}
	for _, c := range corpora {
		dir := filepath.Join("testdata", "fuzz", c.fuzzer)
		frames, err := c.gen()
		if err != nil {
			t.Fatal(err)
		}
		if os.Getenv("SIMFS_REGEN_CORPUS") != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for i, fr := range frames {
				body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", fr)
				name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
				if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			t.Logf("regenerated %d corpus seeds in %s", len(frames), dir)
			continue
		}
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) == 0 {
			t.Fatalf("committed fuzz corpus for %s missing (run with SIMFS_REGEN_CORPUS=1 to regenerate): %v", c.fuzzer, err)
		}
	}
}
