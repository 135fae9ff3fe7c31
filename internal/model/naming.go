package model

import (
	"fmt"
	"strconv"
	"strings"
)

// The naming convention (paper Sec. III-B): output step file names embed a
// key such that if output step di is produced after dj, then
// key(di) > key(dj). SimFS uses the key to find the closest restart step
// and to order files. The default convention is
// <prefix><8-digit zero-padded index><suffix>, e.g. "climate_out_00000042.nc".

// Filename returns the file name of output step i under the context's
// naming convention.
func (c *Context) Filename(i int) string {
	return StepFilename(c.FilePrefix, i, c.FileSuffix)
}

// StepFilename is the default convention itself — byte for byte what
// fmt.Sprintf("%s%08d%s", prefix, i, suffix) prints — for callers that
// hold the prefix and suffix without a Context (dvlib). A miss formats a
// name per step produced and per step evicted, so it appends into one
// stack buffer: the returned string is the only allocation.
func StepFilename(prefix string, i int, suffix string) string {
	if i < 0 {
		return fmt.Sprintf("%s%08d%s", prefix, i, suffix) // the sign counts towards the width
	}
	var arr [64]byte
	buf := append(arr[:0], prefix...)
	for pad := 10_000_000; i < pad && pad > 1; pad /= 10 {
		buf = append(buf, '0')
	}
	buf = strconv.AppendInt(buf, int64(i), 10)
	return string(append(buf, suffix...))
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
// required by the simulation driver contract.
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

// IsOutputFile reports whether name follows this context's output step
// naming convention.
func (c *Context) IsOutputFile(name string) bool {
	_, err := c.Key(name)
	return err == nil
}
