package netproto

import "fmt"

// BodyKind names the typed request body an op carries. The binary codec
// encodes the hot kinds (file, files, unsubscribe, none) without a JSON
// hop, and the federation router reads the routing context out of every
// kind that names one.
type BodyKind uint8

const (
	BodyNone        BodyKind = iota // bodyless ops
	BodyFile                        // FileBody
	BodyFiles                       // FilesBody
	BodyUnsubscribe                 // UnsubscribeBody
	BodyCtx                         // CtxBody
	BodyChecksum                    // ChecksumBody
	BodyCachePolicy                 // CachePolicyBody
	BodyCtxRegister                 // CtxRegisterBody
	// BodyOther is a JSON-only body that names no context (hello,
	// sched-set).
	BodyOther
)

// OpSpec is one row of the op table: what the codec, the daemon, the
// router and the client library need to know about an operation apart
// from what it does.
type OpSpec struct {
	Name string
	// Bin is the binary opcode; 0 keeps the op on JSON payloads inside
	// binary frames. An op with an opcode sent as JSON is refused.
	Bin  byte
	Body BodyKind
	// Stream marks ops whose request ID stays live until a terminal
	// frame: the per-file streams, and open, whose miss is answered
	// again by its notice. Everything else gets exactly one response.
	Stream bool
	// Control marks the control-plane mutations. A reconnecting client
	// replays every other request it has in flight, but fails these: a
	// replay could undo another client's change made since, or repeat
	// one the caller saw succeed.
	Control bool
	// Timed marks ops whose service time the daemon tracks in its own
	// histogram (the rest share the "other" bucket).
	Timed bool
}

// Ops is the op table: exactly one row per Op* constant. Timed rows
// appear in the order the stats frame lists their latencies.
var Ops = []OpSpec{
	{Name: OpHello, Body: BodyOther},
	{Name: OpOpen, Bin: binOpen, Body: BodyFile, Stream: true, Timed: true},
	{Name: OpRelease, Bin: binRelease, Body: BodyFile, Timed: true},
	{Name: OpAcquire, Bin: binAcquire, Body: BodyFiles, Stream: true, Timed: true},
	{Name: OpEstWait, Bin: binEstWait, Body: BodyFile, Timed: true},
	{Name: OpBitrep, Bin: binBitrep, Body: BodyFile},
	{Name: OpPrefetch, Bin: binPrefetch, Body: BodyFiles, Timed: true},
	{Name: OpSubscribe, Bin: binSubscribe, Body: BodyFiles, Stream: true, Timed: true},
	{Name: OpUnsubscribe, Bin: binUnsubscribe, Body: BodyUnsubscribe},
	{Name: OpStats, Body: BodyCtx, Timed: true},
	{Name: OpPing, Bin: binPing, Timed: true},
	{Name: OpContexts},
	{Name: OpContextInfo, Body: BodyCtx},
	{Name: OpRegSum, Body: BodyChecksum},
	{Name: OpRescan, Body: BodyCtx},
	{Name: OpPeers},
	{Name: OpSchedGet},
	{Name: OpSchedSet, Body: BodyOther, Control: true},
	{Name: OpCachePolicySet, Body: BodyCachePolicy, Control: true},
	{Name: OpCtxRegister, Body: BodyCtxRegister, Control: true},
	{Name: OpCtxDeregister, Body: BodyCtx, Control: true},
	{Name: OpDrain, Body: BodyCtx, Control: true},
	{Name: OpResume, Body: BodyCtx, Control: true},
	{Name: OpQuarantineReset, Body: BodyCtx, Control: true},
}

// rowByName and rowByBin index the table by wire name and binary
// opcode: a row's index plus one, 0 for none.
var rowByName, rowByBin = func() (map[string]uint8, [binPing + 1]uint8) {
	byName := make(map[string]uint8, len(Ops))
	var byBin [binPing + 1]uint8
	for i, spec := range Ops {
		byName[spec.Name] = uint8(i + 1)
		if spec.Bin != 0 {
			byBin[spec.Bin] = uint8(i + 1)
		}
	}
	return byName, byBin
}()

// RoutingContext extracts the simulation context the request addresses
// — the federation router's routing key. Unknown ops and ops whose body
// names no context report an error.
func (e *Envelope) RoutingContext() (string, error) {
	var kind BodyKind // BodyNone for an op the table lacks
	if row := e.Row(); row >= 0 {
		kind = Ops[row].Body
	}
	switch kind {
	case BodyFile:
		if b, ok := e.File(); ok {
			return b.Context, nil
		}
		var b FileBody
		err := e.Decode(&b)
		return b.Context, err
	case BodyFiles:
		var b FilesBody
		err := e.Decode(&b)
		return b.Context, err
	case BodyCtx:
		var b CtxBody
		err := e.Decode(&b)
		return b.Context, err
	case BodyChecksum:
		var b ChecksumBody
		err := e.Decode(&b)
		return b.Context, err
	case BodyCachePolicy:
		var b CachePolicyBody
		err := e.Decode(&b)
		return b.Context, err
	case BodyCtxRegister:
		var b CtxRegisterBody
		if err := e.Decode(&b); err != nil || b.Context == nil {
			return "", err
		}
		return b.Context.Name, nil
	}
	return "", fmt.Errorf("netproto: op %q has no routing context", e.Op)
}
