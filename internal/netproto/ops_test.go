package netproto

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"simfs/internal/model"
)

// opConstants parses netproto.go for the Op* string constants, so the
// table test cannot drift from the declarations it guards.
func opConstants(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "netproto.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, name := range vs.Names {
			if !strings.HasPrefix(name.Name, "Op") || i >= len(vs.Values) {
				continue
			}
			if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				op, _ := strconv.Unquote(lit.Value)
				ops = append(ops, op)
			}
		}
		return true
	})
	return ops
}

func rowsWhere(pick func(OpSpec) bool) []string {
	var out []string
	for _, spec := range Ops {
		if pick(spec) {
			out = append(out, spec.Name)
		}
	}
	sort.Strings(out)
	return out
}

func sorted(ops ...string) []string {
	sort.Strings(ops)
	return ops
}

// TestOpTable is the golden for the op table: the sets below are the
// shadow lists the table replaced (fed.streamOp, server.New's latency
// list, the codec's opcode maps) and the control-plane mutations a
// reconnecting client fails.
func TestOpTable(t *testing.T) {
	consts := opConstants(t)
	if len(consts) < 24 {
		t.Fatalf("found only %d Op* constants; the parse is broken", len(consts))
	}
	rows := map[string]int{}
	for _, spec := range Ops {
		rows[spec.Name]++
	}
	for _, op := range consts {
		if rows[op] != 1 {
			t.Errorf("op %q has %d table rows, want exactly 1", op, rows[op])
		}
	}
	if len(Ops) != len(consts) {
		t.Errorf("table has %d rows for %d Op* constants", len(Ops), len(consts))
	}

	// Opcode 2 (the retired wait) stays a gap: a row claiming it fails here.
	wantBin := map[string]byte{OpOpen: 1, OpRelease: 3, OpEstWait: 4, OpBitrep: 5,
		OpAcquire: 6, OpSubscribe: 7, OpPrefetch: 8, OpUnsubscribe: 9, OpPing: 10}
	gotBin := map[string]byte{}
	seen := map[byte]string{}
	for _, spec := range Ops {
		if spec.Bin == 0 {
			continue
		}
		if prev, dup := seen[spec.Bin]; dup {
			t.Errorf("opcode %d shared by %q and %q", spec.Bin, prev, spec.Name)
		}
		seen[spec.Bin] = spec.Name
		gotBin[spec.Name] = spec.Bin
	}
	if !reflect.DeepEqual(gotBin, wantBin) {
		t.Errorf("binary opcodes = %v, want the committed %v", gotBin, wantBin)
	}

	if got, want := rowsWhere(func(s OpSpec) bool { return s.Stream }),
		sorted(OpAcquire, OpSubscribe, OpOpen); !reflect.DeepEqual(got, want) {
		t.Errorf("Stream = %v, want %v", got, want)
	}
	// The seven ops a reconnect fails rather than replays.
	if got, want := rowsWhere(func(s OpSpec) bool { return s.Control }),
		sorted(OpSchedSet, OpCachePolicySet, OpCtxRegister, OpCtxDeregister,
			OpDrain, OpResume, OpQuarantineReset); !reflect.DeepEqual(got, want) {
		t.Errorf("Control = %v, want %v", got, want)
	}
	// Timed keeps table order: it is the stats frame's display order.
	var timed []string
	for _, spec := range Ops {
		if spec.Timed {
			timed = append(timed, spec.Name)
		}
	}
	if want := []string{OpOpen, OpRelease, OpAcquire, OpEstWait, OpPrefetch,
		OpSubscribe, OpStats, OpPing}; !reflect.DeepEqual(timed, want) {
		t.Errorf("Timed = %v, want %v", timed, want)
	}
}

// Every row whose body names a context yields it as the routing key, in
// both codecs; every other row refuses.
func TestRoutingContext(t *testing.T) {
	sample := map[BodyKind]any{
		BodyFile:        FileBody{Context: "ctx-x", File: "f"},
		BodyFiles:       FilesBody{Context: "ctx-x", Files: []string{"f", "g"}},
		BodyCtx:         CtxBody{Context: "ctx-x"},
		BodyChecksum:    ChecksumBody{Context: "ctx-x", File: "f", Sum: 7},
		BodyCachePolicy: CachePolicyBody{Context: "ctx-x", Policy: "LRU"},
		BodyCtxRegister: CtxRegisterBody{Context: &model.Context{Name: "ctx-x"}},
	}
	for _, spec := range Ops {
		body, routed := sample[spec.Body]
		for _, codec := range []Codec{JSON, Binary} {
			var buf bytes.Buffer
			if err := codec.EncodeFrame(&buf, mustEnvelope(t, 5, spec.Name, body)); err != nil {
				t.Fatalf("%s/%s: %v", spec.Name, codec.Name(), err)
			}
			var env Envelope
			if err := codec.DecodeFrame(&buf, &env); err != nil {
				t.Fatalf("%s/%s: %v", spec.Name, codec.Name(), err)
			}
			got, err := env.RoutingContext()
			if routed && (err != nil || got != "ctx-x") {
				t.Errorf("%s/%s: routing context = %q, %v; want ctx-x", spec.Name, codec.Name(), got, err)
			}
			if !routed && err == nil {
				t.Errorf("%s/%s: routing context %q from a body that names none", spec.Name, codec.Name(), got)
			}
		}
	}
	if _, err := (&Envelope{Op: "no-such-op"}).RoutingContext(); err == nil {
		t.Error("unknown op has a routing context")
	}
}

// Every envelope a decoder or a constructor builds names its op's row
// of Ops — what the daemon's handler table and histograms are indexed
// by: NewEnvelope's and NewFileEnvelope's, and what the binary decoder
// and the JSON decoder make of each row's frame, the JSON control-plane
// ops (opcode 0, JSON inside binary frames) included. An op the table
// lacks names no row, however it arrives.
func TestEnvelopeRows(t *testing.T) {
	sample := map[BodyKind]any{
		BodyFile:        FileBody{Context: "c", File: "f"},
		BodyFiles:       FilesBody{Context: "c", Files: []string{"f"}},
		BodyUnsubscribe: UnsubscribeBody{SubID: 3},
		BodyCtx:         CtxBody{Context: "c"},
	}
	check := func(what string, env *Envelope, want int) {
		t.Helper()
		if got := env.Row(); got != want {
			t.Errorf("%s: row %d, want %d", what, got, want)
		}
	}
	decode := func(codec Codec, env Envelope) *Envelope {
		t.Helper()
		var buf bytes.Buffer
		if err := codec.EncodeFrame(&buf, env); err != nil {
			t.Fatal(err)
		}
		var got Envelope
		if err := codec.DecodeFrame(&buf, &got); err != nil {
			t.Fatal(err)
		}
		return &got
	}
	for row, spec := range Ops {
		env := mustEnvelope(t, 5, spec.Name, sample[spec.Body])
		check("NewEnvelope "+spec.Name, &env, row)
		for _, codec := range []Codec{JSON, Binary} {
			check(codec.Name()+" decoder "+spec.Name, decode(codec, env), row)
		}
	}
	fe := NewFileEnvelope(1, OpRelease, FileBody{Context: "c", File: "f"})
	check("NewFileEnvelope release", &fe, int(rowByName[OpRelease])-1)
	for _, codec := range []Codec{JSON, Binary} {
		unknown := decode(codec, Envelope{ID: 1, Op: "no-such-op"})
		check(codec.Name()+" decoder no-such-op", unknown, -1)
	}
	unknown := mustEnvelope(t, 1, "no-such-op", nil)
	check("NewEnvelope no-such-op", &unknown, -1)
}
