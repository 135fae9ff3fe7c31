package model

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// The naming convention (paper Sec. III-B): output step file names embed a
// key such that if output step di is produced after dj, then
// key(di) > key(dj). SimFS uses the key to find the closest restart step
// and to order files. The default convention is
// <prefix><8-digit zero-padded index><suffix>, e.g. "climate_out_00000042.nc".

// Filename returns the file name of output step i under the context's
// naming convention. A defaulted context names each step of its timeline
// once (see nameTable), so a re-simulation that writes and evicts n
// steps formats nothing per step; other indices, a context never
// defaulted, and a copy renamed since its last ApplyDefaults go through
// StepFilename.
func (c *Context) Filename(i int) string {
	if t := c.names; t != nil && 1 <= i && i <= t.n && t.prefix == c.FilePrefix && t.suffix == c.FileSuffix {
		return t.name(i)
	}
	return StepFilename(c.FilePrefix, i, c.FileSuffix)
}

// NameOf returns the name table's own string for name when name is
// byte for byte Filename(i) of a step i the table holds, so a caller
// holding the name as bytes (a decoded request) gets it as a string
// without a copy. Anything else — no table, a copy renamed since its
// table was built, a key that is not eight digits, a step outside
// [1, n] — answers false, and the caller copies.
func (c *Context) NameOf(name []byte) (string, bool) {
	t := c.names
	if t == nil || len(name) != t.width || t.prefix != c.FilePrefix || t.suffix != c.FileSuffix ||
		string(name[:len(t.prefix)]) != t.prefix || string(name[t.width-len(t.suffix):]) != t.suffix {
		return "", false
	}
	i := 0
	for _, d := range name[len(t.prefix) : t.width-len(t.suffix)] {
		if d < '0' || d > '9' {
			return "", false
		}
		i = i*10 + int(d-'0')
	}
	if i < 1 || i > t.n {
		return "", false
	}
	return t.name(i), true
}

// StepFilename is the default convention itself — byte for byte what
// fmt.Sprintf("%s%08d%s", prefix, i, suffix) prints — for callers that
// hold the prefix and suffix without a Context (dvlib), and for the
// steps a context's name table does not hold. It appends into one stack
// buffer, so the returned string is its only allocation.
func StepFilename(prefix string, i int, suffix string) string {
	if i < 0 {
		return fmt.Sprintf("%s%08d%s", prefix, i, suffix) // the sign counts towards the width
	}
	var arr [64]byte
	return string(appendStepFilename(arr[:0], prefix, i, suffix))
}

// appendStepFilename appends StepFilename(prefix, i, suffix) to buf, for
// a non-negative i.
func appendStepFilename(buf []byte, prefix string, i int, suffix string) []byte {
	buf = append(buf, prefix...)
	for pad := 10_000_000; i < pad && pad > 1; pad /= 10 {
		buf = append(buf, '0')
	}
	buf = strconv.AppendInt(buf, int64(i), 10)
	return append(buf, suffix...)
}

const (
	// maxTabledStep is the last step whose key is exactly eight digits:
	// up to it every name of a table has one width, so step i sits at a
	// fixed offset of its chunk.
	maxTabledStep = 99_999_999
	// namesPerChunk is how many names a chunk of a name table holds.
	namesPerChunk = 256
)

// nameTable holds the file names of steps [1, n] under one prefix and
// suffix. A chunk of namesPerChunk consecutive names is one string, built
// the first time any of its steps is named and published with a CAS, so
// concurrent first touches settle on one copy and later lookups take no
// lock and allocate nothing. Chunks are lazy because a context may be
// built per experiment replay, and a long timeline is mostly never named.
type nameTable struct {
	prefix, suffix string
	n              int // steps named; ≤ maxTabledStep
	width          int // the length of every name
	chunks         []atomic.Pointer[string]
}

// fit returns t if it names steps [1, n] under prefix and suffix, and
// otherwise a fresh table (nil when there is no step to name).
func (t *nameTable) fit(prefix, suffix string, n int) *nameTable {
	if t != nil && t.prefix == prefix && t.suffix == suffix && t.n == n {
		return t
	}
	if n <= 0 {
		return nil
	}
	return &nameTable{
		prefix: prefix, suffix: suffix, n: n,
		width:  len(prefix) + 8 + len(suffix),
		chunks: make([]atomic.Pointer[string], (n+namesPerChunk-1)/namesPerChunk),
	}
}

// name returns step i's name, for 1 ≤ i ≤ t.n: a substring of its chunk.
func (t *nameTable) name(i int) string {
	k, off := (i-1)/namesPerChunk, (i-1)%namesPerChunk*t.width
	chunk := t.chunks[k].Load()
	if chunk == nil {
		chunk = t.build(k)
	}
	return (*chunk)[off : off+t.width]
}

// build formats chunk k and publishes it, unless a concurrent build
// published it first; either way it returns the published chunk.
func (t *nameTable) build(k int) *string {
	first := k*namesPerChunk + 1
	last := min(first+namesPerChunk-1, t.n)
	buf := make([]byte, 0, (last-first+1)*t.width)
	for i := first; i <= last; i++ {
		buf = appendStepFilename(buf, t.prefix, i, t.suffix)
	}
	chunk := string(buf)
	if t.chunks[k].CompareAndSwap(nil, &chunk) {
		return &chunk
	}
	return t.chunks[k].Load()
}

// RestartFilename returns the file name of the restart step written at
// timestep t (a multiple of Δr).
func (c *Context) RestartFilename(t int) string {
	return fmt.Sprintf("%srestart_%010d%s", c.FilePrefix, t, c.FileSuffix)
}

// Key parses an output step file name and returns its key (the output step
// index). It is the exact inverse of Filename: Key(name) == i only when
// Filename(i) == name, so each step has one name — the one the cache and
// the storage area know it by. A sign, short padding ("_2") or extra
// leading zeros name no step. Key is monotone in production order, as
// the paper's naming convention (Sec. III-B) requires.
func (c *Context) Key(name string) (int, error) {
	if len(name) < len(c.FilePrefix)+len(c.FileSuffix) ||
		!strings.HasPrefix(name, c.FilePrefix) || !strings.HasSuffix(name, c.FileSuffix) {
		return 0, fmt.Errorf("model: %q does not match naming convention %q*%q",
			name, c.FilePrefix, c.FileSuffix)
	}
	body := name[len(c.FilePrefix) : len(name)-len(c.FileSuffix)]
	// What %08d prints: digits only, padded with zeros to eight and never
	// beyond.
	canonical := len(body) == 8 || (len(body) > 8 && body[0] != '0')
	for i := 0; i < len(body); i++ {
		canonical = canonical && '0' <= body[i] && body[i] <= '9'
	}
	if !canonical {
		return 0, fmt.Errorf("model: %q has non-canonical key %q (want digits, zero-padded to 8)", name, body)
	}
	i, err := strconv.Atoi(body)
	if err != nil {
		return 0, fmt.Errorf("model: %q has non-numeric key %q: %w", name, body, err)
	}
	if i < 1 {
		return 0, fmt.Errorf("model: %q has non-positive key %d", name, i)
	}
	return i, nil
}
