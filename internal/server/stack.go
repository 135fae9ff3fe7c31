package server

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"simfs/internal/core"
	"simfs/internal/des"
	"simfs/internal/model"
	"simfs/internal/sched"
	"simfs/internal/simulator"
	"simfs/internal/vfs"
)

// Stack is a fully wired wall-clock SimFS instance: the Virtualizer, an
// in-process real-time launcher writing real files into per-context disk
// storage areas, and the TCP front-end. It is what cmd/simfs-dv runs and
// what the examples connect to. Its Server serves ctx-register through
// it, so the control plane can add contexts to the live daemon.
type Stack struct {
	V        *core.Virtualizer
	Launcher *simulator.Launcher
	Server   *Server

	baseDir   string
	timeScale int

	// resimGen numbers re-simulation writes, used to perturb the content
	// of non-reproducible contexts (each re-simulated file differs from
	// the initial run).
	resimGen atomic.Int64
}

// NewStack builds a daemon stack rooted at baseDir: each context gets the
// storage area <baseDir>/<context-name>. timeScale divides all simulated
// durations (1000 turns a 13 s restart latency into 13 ms), letting the
// examples and integration tests run the published COSMO/FLASH timings in
// milliseconds. policy names the replacement scheme (Sec. III-D). The
// launch scheduler runs the default (paper-exact) policy; use
// NewScheduledStack to enable coalescing, priority queueing or a node
// budget — or reconfigure the live daemon through the control plane.
func NewStack(baseDir string, timeScale int, policy string, ctxs ...*model.Context) (*Stack, error) {
	return NewScheduledStack(baseDir, timeScale, policy, sched.Config{}, ctxs...)
}

// NewScheduledStack is NewStack with an explicit re-simulation scheduler
// policy (see internal/sched): coalescing of overlapping launch requests,
// priority-ordered queueing, and a global node budget across contexts.
func NewScheduledStack(baseDir string, timeScale int, policy string, schedCfg sched.Config, ctxs ...*model.Context) (*Stack, error) {
	if len(ctxs) == 0 {
		return nil, fmt.Errorf("server: %w: stack needs at least one context", core.ErrInvalid)
	}
	st := &Stack{baseDir: baseDir, timeScale: timeScale}
	st.Launcher = &simulator.Launcher{TimeScale: timeScale}
	st.V = core.NewScheduled(des.NewWallClock(), st.Launcher, schedCfg)
	st.Launcher.Events = st.V
	st.Launcher.Write = func(ctx *model.Context, step int) error {
		// A launch follows the context's registration, which hands the
		// shard its storage area.
		area, err := st.V.StorageArea(ctx.Name)
		if err != nil {
			return err
		}
		name := ctx.Filename(step)
		if ctx.NonReproducible {
			// A non-reproducible simulator (paper Sec. I) produces
			// different bits on every run: perturb the content with the
			// re-simulation generation so SIMFS_Bitrep flags it.
			gen := st.resimGen.Add(1)
			data := vfs.Content(fmt.Sprintf("%s#resim%d", name, gen), ctx.OutputBytes)
			return area.WriteRaw(name, data)
		}
		return area.Create(name, ctx.OutputBytes)
	}
	for _, ctx := range ctxs {
		if err := st.addContext(ctx, policy); err != nil {
			return nil, err
		}
	}
	st.Server = New(st.V, nil)
	st.Server.stack = st
	return st, nil
}

// addContext provisions the storage area and registers the context.
func (st *Stack) addContext(ctx *model.Context, policy string) error {
	// The context name becomes a directory under baseDir and arrives
	// over the wire for runtime registrations: reject anything that
	// could escape the storage root before any directory is created.
	if name := ctx.Name; name == "" || name == "." || name == ".." ||
		strings.ContainsAny(name, `/\`) || filepath.Base(name) != name {
		return fmt.Errorf("server: %w: invalid context name %q", core.ErrInvalid, ctx.Name)
	}
	ctx.ApplyDefaults()
	area, err := vfs.NewDisk(filepath.Join(st.baseDir, ctx.Name))
	if err != nil {
		return err
	}
	ctx.StorageDir = area.Dir()
	return st.V.AddContext(ctx, policy, area)
}

// RegisterContext adds a context to the running daemon, creating its
// storage area under the stack's base directory, and optionally runs the
// initial simulation so restart files and original checksums exist
// before clients arrive. Files already in the storage area (a
// re-registered context) are recovered by a rescan.
func (st *Stack) RegisterContext(ctx *model.Context, policy string, initialSim bool) error {
	if ctx == nil {
		return fmt.Errorf("server: %w: register of a nil context", core.ErrInvalid)
	}
	if err := st.addContext(ctx, policy); err != nil {
		return err
	}
	if initialSim {
		if err := st.RunInitialSimulation(ctx.Name); err != nil {
			return err
		}
	}
	if _, err := st.V.RescanStorageArea(ctx.Name); err != nil {
		return err
	}
	return nil
}

// SyncContexts reconciles the running daemon against a desired context
// set (the config-file reload path: SIGHUP → re-read config → diff).
// Contexts in desired but not registered are added (with an initial
// simulation when initialSim is set); registered contexts absent from
// desired are drained and deregistered. A stale context still holding
// references stays draining — its error is reported and the next reload
// retries the removal. Existing contexts are left untouched: live
// parameter changes go through the control plane instead.
func (st *Stack) SyncContexts(desired []*model.Context, policy string, initialSim bool) (added, removed []string, err error) {
	want := map[string]*model.Context{}
	for _, ctx := range desired {
		if ctx != nil {
			want[ctx.Name] = ctx
		}
	}
	have := map[string]bool{}
	for _, name := range st.V.ContextNames() {
		have[name] = true
	}

	var errs []error
	var missing []string
	for name := range want {
		if !have[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		if regErr := st.RegisterContext(want[name], policy, initialSim); regErr != nil {
			errs = append(errs, fmt.Errorf("register %q: %w", name, regErr))
			continue
		}
		added = append(added, name)
	}

	var stale []string
	for name := range have {
		if _, ok := want[name]; !ok {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		if drainErr := st.V.Drain(name); drainErr != nil {
			errs = append(errs, fmt.Errorf("drain %q: %w", name, drainErr))
			continue
		}
		// The files stay on disk: re-registering the context recovers them.
		if remErr := st.V.RemoveContext(name); remErr != nil {
			// Still busy: the context stays draining (it admits no new
			// clients) and the next sync retries the removal.
			errs = append(errs, fmt.Errorf("deregister %q: %w", name, remErr))
			continue
		}
		removed = append(removed, name)
	}
	return added, removed, errors.Join(errs...)
}

// RunInitialSimulation models the initial simulation of a context (paper
// Fig. 2, "initial simulation, write restart files"): it writes the
// restart files into the storage area and registers the original output
// checksums so SIMFS_Bitrep can verify later re-simulations. Output steps
// themselves are not stored — that is the point of SimFS.
func (st *Stack) RunInitialSimulation(ctxName string) error {
	ctx, ok := st.V.Context(ctxName)
	if !ok {
		return fmt.Errorf("server: %w %q", core.ErrUnknownContext, ctxName)
	}
	area, err := st.V.StorageArea(ctxName)
	if err != nil {
		return err
	}
	for t := ctx.Grid.DeltaR; t <= ctx.Grid.Timesteps; t += ctx.Grid.DeltaR {
		if err := area.Create(ctx.RestartFilename(t), ctx.RestartBytes); err != nil {
			return err
		}
	}
	for i := 1; i <= ctx.Grid.NumOutputSteps(); i++ {
		name := ctx.Filename(i)
		sum := simulator.Checksum(vfs.Content(name, ctx.OutputBytes))
		if err := st.V.RegisterChecksum(ctxName, name, sum); err != nil {
			return err
		}
	}
	return nil
}

// ListenAndServe binds the TCP front-end and serves until Close.
func (st *Stack) ListenAndServe(addr string) error {
	if err := st.Server.Listen(addr); err != nil {
		return err
	}
	return st.Server.Serve()
}

// Close shuts down the front-end and waits for running simulations.
func (st *Stack) Close() { st.Server.Close() }
