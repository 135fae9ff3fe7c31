package model

import (
	"fmt"
	"time"
)

// Context is a simulation context (paper Sec. II-A): a simulator plus one
// of its configurations. Analyses operate on the output of a given context;
// multiple contexts may share restart files and offer different output
// granularities and re-simulation speeds. The context also carries the
// parameters the DV needs to manage its storage area and prefetching.
type Context struct {
	// Name identifies the context. Analyses select it via environment
	// variable (transparent mode) or SIMFS_Init (API mode).
	Name string

	// Grid is the temporal discretization of this configuration.
	Grid Grid

	// StorageDir is the storage area (a file-system directory) associated
	// with this context. Re-simulation output is redirected here.
	StorageDir string

	// MaxCacheBytes is the maximum size of the storage area. When usage
	// reaches this bound the DV applies the eviction policy.
	MaxCacheBytes int64

	// OutputBytes and RestartBytes are the (constant) sizes so, sr of one
	// output step and one restart step.
	OutputBytes  int64
	RestartBytes int64

	// Tau is τsim(P*): the time between the production of two consecutive
	// output steps at the context's default parallelism level.
	Tau time.Duration
	// Alpha is αsim: the restart latency of a re-simulation (resource
	// wait, restart-file read, model initialization), excluding batch
	// queueing time, which the batch substrate adds on top.
	Alpha time.Duration

	// DefaultParallelism is the node count re-simulations run on unless
	// a prefetch agent raises it (strategy 1).
	DefaultParallelism int
	// MaxParallelism is the largest node count a re-simulation may run
	// on.
	MaxParallelism int

	// SMax limits the number of re-simulations of this context that may
	// run concurrently (paper Sec. VI, smax).
	SMax int

	// RampUp, when true, starts prefetching with s=1 parallel simulations
	// and doubles at each prefetching step instead of launching sopt at
	// once (Sec. IV-B1b).
	RampUp bool

	// NoPrefetch disables the prefetch agents for this context, leaving
	// pure on-demand re-simulation (used by the caching evaluation and as
	// an ablation baseline).
	NoPrefetch bool

	// NonReproducible marks a simulator without bitwise reproducibility
	// (paper Sec. I): re-simulated files differ from the initial run's
	// output. Analyses detect this through SIMFS_Bitrep and must be
	// prepared to operate on the differing data.
	NonReproducible bool

	// AlphaSmoothing is the exponential-moving-average smoothing factor
	// used to track observed restart latencies (Sec. IV-C1c). 0 < f ≤ 1;
	// higher weights the most recent observation more.
	AlphaSmoothing float64

	// Upstream optionally names the context whose output is this
	// context's input, for virtualized simulation pipelines (Sec. III-E).
	// A miss on this context's input triggers a re-simulation upstream.
	Upstream string

	// FilePrefix and FileSuffix define the naming convention of output
	// step files; see Filename and ParseFilename.
	FilePrefix string
	FileSuffix string

	// names is the step-name table ApplyDefaults installs for Filename. A
	// plain pointer: contexts are copied by value, and a copy shares the
	// table until its own ApplyDefaults finds the naming or n changed.
	names *nameTable
}

// Validate reports whether the context is usable, applying no defaults.
func (c *Context) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("model: context has no name")
	}
	if err := c.Grid.Validate(); err != nil {
		return fmt.Errorf("context %q: %w", c.Name, err)
	}
	if n := c.Grid.NumOutputSteps(); n > MaxSteps {
		return fmt.Errorf("context %q has %d output steps, more than %d", c.Name, n, MaxSteps)
	}
	if c.MaxCacheBytes < 0 {
		return fmt.Errorf("context %q: negative MaxCacheBytes", c.Name)
	}
	if c.OutputBytes <= 0 {
		return fmt.Errorf("context %q: OutputBytes must be positive", c.Name)
	}
	if c.MaxCacheBytes > 0 && c.MaxCacheBytes < c.OutputBytes {
		return fmt.Errorf("context %q: MaxCacheBytes %d holds no output step (%d bytes)", c.Name, c.MaxCacheBytes, c.OutputBytes)
	}
	if c.Tau <= 0 {
		return fmt.Errorf("context %q: Tau must be positive", c.Name)
	}
	if c.Alpha < 0 {
		return fmt.Errorf("context %q: Alpha must be non-negative", c.Name)
	}
	if c.DefaultParallelism <= 0 || c.MaxParallelism < c.DefaultParallelism {
		return fmt.Errorf("context %q: invalid parallelism levels (%d, %d)",
			c.Name, c.DefaultParallelism, c.MaxParallelism)
	}
	if c.SMax <= 0 {
		return fmt.Errorf("context %q: SMax must be positive", c.Name)
	}
	if c.AlphaSmoothing <= 0 || c.AlphaSmoothing > 1 {
		return fmt.Errorf("context %q: AlphaSmoothing must be in (0,1]", c.Name)
	}
	return nil
}

// ApplyDefaults fills zero-valued optional fields with sensible defaults.
func (c *Context) ApplyDefaults() {
	if c.DefaultParallelism == 0 {
		c.DefaultParallelism = 1
	}
	if c.MaxParallelism == 0 {
		c.MaxParallelism = c.DefaultParallelism
	}
	if c.SMax == 0 {
		c.SMax = 8
	}
	if c.AlphaSmoothing == 0 {
		c.AlphaSmoothing = 0.5
	}
	if c.FilePrefix == "" {
		c.FilePrefix = c.Name + "_out_"
	}
	if c.FileSuffix == "" {
		c.FileSuffix = ".nc"
	}
	if c.RestartBytes == 0 {
		c.RestartBytes = c.OutputBytes
	}
	n := 0
	if c.Grid.DeltaD > 0 { // ApplyDefaults runs before Validate
		n = min(c.Grid.NumOutputSteps(), maxTabledStep)
	}
	// Assigned only on a change, so defaulting a context already in use
	// writes nothing.
	if t := c.names.fit(c.FilePrefix, c.FileSuffix, n); t != c.names {
		c.names = t
	}
}

// CacheCapacitySteps returns how many output steps fit in the storage area.
func (c *Context) CacheCapacitySteps() int {
	if c.OutputBytes == 0 {
		return 0
	}
	return int(c.MaxCacheBytes / c.OutputBytes)
}

// TotalOutputBytes returns the data volume of the full simulation output.
func (c *Context) TotalOutputBytes() int64 {
	return int64(c.Grid.NumOutputSteps()) * c.OutputBytes
}

// TauAt returns τsim(p): the inter-production time at parallelism level p,
// modeled with linear strong scaling from the default level up to
// MaxParallelism. Levels below the default run proportionally slower. This
// matches the paper's use of a tunable parallelism level (Sec. III-B) while
// keeping the model simulator-agnostic.
func (c *Context) TauAt(p int) time.Duration {
	if p <= 0 {
		p = c.DefaultParallelism
	}
	if p > c.MaxParallelism {
		p = c.MaxParallelism
	}
	scaled := float64(c.Tau) * float64(c.DefaultParallelism) / float64(p)
	return time.Duration(scaled)
}
