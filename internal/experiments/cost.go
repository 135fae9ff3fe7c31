package experiments

import (
	"fmt"
	"math/rand"

	"simfs/internal/costmodel"
	"simfs/internal/metrics"
	"simfs/internal/model"
	"simfs/internal/simulator"
	"simfs/internal/trace"
)

// CostWorkload describes the synthetic analysis population of the cost
// studies (Sec. V-A): forward-in-time analyses starting at random output
// steps, with a configurable execution overlap.
type CostWorkload struct {
	NumAnalyses int
	Overlap     float64 // fraction of interleaved accesses (0..1)
	MinLen      int
	MaxLen      int
	// StartMax bounds the uniformly random start step. The paper does not
	// publish it; it is calibrated so the in-situ/SimFS crossover falls
	// near 20 analyses as reported in Sec. V-A (see EXPERIMENTS.md).
	StartMax int
	Seed     int64
}

// DefaultCostWorkload returns the calibrated workload: 100 analyses, 50%
// overlap, 100–400 accesses each.
func DefaultCostWorkload() CostWorkload {
	return CostWorkload{
		NumAnalyses: 100,
		Overlap:     0.5,
		MinLen:      100,
		MaxLen:      400,
		StartMax:    2000,
		Seed:        1,
	}
}

// generate builds the access trace plus the per-analysis starts/lengths
// the in-situ model needs.
func (w CostWorkload) generate(ctx *model.Context) (accesses []trace.Access, starts, lengths []int) {
	rng := rand.New(rand.NewSource(w.Seed))
	no := ctx.Grid.NumOutputSteps()
	startMax := w.StartMax
	if startMax <= 0 || startMax > no {
		startMax = no
	}
	for a := 0; a < w.NumAnalyses; a++ {
		start := rng.Intn(startMax) + 1
		length := w.MinLen
		if w.MaxLen > w.MinLen {
			length += rng.Intn(w.MaxLen - w.MinLen + 1)
		}
		if start+length > no {
			length = no - start
		}
		starts = append(starts, start)
		lengths = append(lengths, length)
		for i := 0; i < length; i++ {
			accesses = append(accesses, trace.Access{Step: start + i, Analysis: a})
		}
	}
	return trace.Interleave(accesses, w.Overlap, w.Seed+1), starts, lengths
}

// costCtx clones the COSMO cost context with the given restart interval
// (hours) and cache fraction.
func costCtx(deltaRHours int, cacheFrac float64) *model.Context {
	ctx := simulator.CosmoCost()
	ctx.Grid.DeltaR = deltaRHours * 3600 / 20 // 20 s timesteps
	ctx.MaxCacheBytes = int64(cacheFrac * float64(ctx.TotalOutputBytes()))
	return ctx
}

// resimVolume replays the workload through the caching layer (DCL, as
// fixed after Fig. 5) and returns V(γ∆t).
func resimVolume(ctx *model.Context, w CostWorkload) (int, error) {
	accesses, _, _ := w.generate(ctx)
	res, err := Replay(ctx, "DCL", accesses)
	if err != nil {
		return 0, err
	}
	return res.ProducedSteps, nil
}

// drFrac is one (restart interval, cache fraction) point of a cost-model
// grid; the replay-heavy V(γ∆t) term of each point is an independent
// experiment cell.
type drFrac struct {
	drh  int
	frac float64
}

// resimVolumeGrid computes V(γ∆t) for every grid point on the worker
// pool, in grid order. Each cell rebuilds its context and workload from
// the cell parameters alone, so the result is independent of the worker
// count.
func resimVolumeGrid(cells []drFrac, workload func(cell int) CostWorkload) ([]int, error) {
	return RunCells(0, len(cells), func(i int) (int, error) {
		return resimVolume(costCtx(cells[i].drh, cells[i].frac), workload(i))
	})
}

// Months for the availability-period axis of Figs. 1 and 12.
var availabilityMonths = []struct {
	label  string
	months float64
}{
	{"6m", 6}, {"1y", 12}, {"2y", 24}, {"3y", 36}, {"4y", 48}, {"5y", 60},
}

// Fig01 reproduces the headline cost figure: 100 analyses at 50% overlap,
// Δr = 8h, SimFS cache 25%, over availability periods from 6 months to 5
// years.
func Fig01(w CostWorkload, p costmodel.Prices) (*metrics.Table, error) {
	tab := metrics.NewTable("Fig. 1 — aggregated analysis cost", "availability", "cost (x1000$)")
	ctx := costCtx(8, 0.25)
	v, err := resimVolume(ctx, w)
	if err != nil {
		return nil, err
	}
	_, starts, lengths := w.generate(ctx)
	inSitu := costmodel.InSitu(ctx, starts, lengths, p)
	for _, am := range availabilityMonths {
		tab.Series("on-disk").Add(am.label, costmodel.OnDisk(ctx, am.months, p)/1000)
		tab.Series("in-situ").Add(am.label, inSitu/1000)
		tab.Series("SimFS").Add(am.label, costmodel.SimFS(ctx, am.months, 0.25, v, p)/1000)
	}
	return tab, nil
}

// Fig12 sweeps the availability period for Δr ∈ {4h, 8h, 16h} and SimFS
// cache sizes of 25% and 50%. The six (Δr, cache) volumes run in
// parallel.
func Fig12(w CostWorkload, p costmodel.Prices) (*metrics.Table, error) {
	tab := metrics.NewTable("Fig. 12 — cost vs availability period", "availability", "cost (x1000$)")
	var cells []drFrac
	for _, drh := range []int{4, 8, 16} {
		for _, frac := range []float64{0.25, 0.50} {
			cells = append(cells, drFrac{drh, frac})
		}
	}
	vols, err := resimVolumeGrid(cells, func(int) CostWorkload { return w })
	if err != nil {
		return nil, err
	}
	for i, cell := range cells {
		ctx := costCtx(cell.drh, cell.frac)
		name := fmt.Sprintf("SimFS(%d%%) Δr=%dh", int(cell.frac*100), cell.drh)
		for _, am := range availabilityMonths {
			tab.Series(name).Add(am.label, costmodel.SimFS(ctx, am.months, cell.frac, vols[i], p)/1000)
		}
	}
	ref := costCtx(8, 0.25)
	_, starts, lengths := w.generate(ref)
	inSitu := costmodel.InSitu(ref, starts, lengths, p)
	for _, am := range availabilityMonths {
		tab.Series("on-disk").Add(am.label, costmodel.OnDisk(ref, am.months, p)/1000)
		tab.Series("in-situ").Add(am.label, inSitu/1000)
	}
	return tab, nil
}

// Fig13 sweeps the analyses execution overlap at ∆t = 2 years. All
// (overlap, Δr, cache) volumes run in parallel.
func Fig13(w CostWorkload, p costmodel.Prices) (*metrics.Table, error) {
	tab := metrics.NewTable("Fig. 13 — cost vs analyses overlap (∆t=2y)", "overlap %", "cost (x1000$)")
	const months = 24.0
	overlaps := []int{0, 25, 50, 75, 100}
	var cells []drFrac
	var works []CostWorkload
	for _, overlapPct := range overlaps {
		wo := w
		wo.Overlap = float64(overlapPct) / 100
		for _, drh := range []int{4, 8, 16} {
			for _, frac := range []float64{0.25, 0.50} {
				cells = append(cells, drFrac{drh, frac})
				works = append(works, wo)
			}
		}
	}
	vols, err := resimVolumeGrid(cells, func(i int) CostWorkload { return works[i] })
	if err != nil {
		return nil, err
	}
	i := 0
	for _, overlapPct := range overlaps {
		wo := w
		wo.Overlap = float64(overlapPct) / 100
		x := fmt.Sprintf("%d", overlapPct)
		for _, drh := range []int{4, 8, 16} {
			for _, frac := range []float64{0.25, 0.50} {
				ctx := costCtx(drh, frac)
				name := fmt.Sprintf("SimFS(%d%%) Δr=%dh", int(frac*100), drh)
				tab.Series(name).Add(x, costmodel.SimFS(ctx, months, frac, vols[i], p)/1000)
				i++
			}
		}
		ref := costCtx(8, 0.25)
		_, starts, lengths := wo.generate(ref)
		tab.Series("on-disk").Add(x, costmodel.OnDisk(ref, months, p)/1000)
		tab.Series("in-situ").Add(x, costmodel.InSitu(ref, starts, lengths, p)/1000)
	}
	return tab, nil
}

// Fig14 sweeps the number of analyses at ∆t = 2 years and 50% overlap.
// All (analyses, Δr, cache) volumes run in parallel.
func Fig14(w CostWorkload, p costmodel.Prices) (*metrics.Table, error) {
	tab := metrics.NewTable("Fig. 14 — cost vs number of analyses (∆t=2y)", "analyses", "cost (x1000$)")
	const months = 24.0
	counts := []int{1, 5, 10, 20, 40, 60, 80, 100, 125}
	var cells []drFrac
	var works []CostWorkload
	for _, n := range counts {
		wn := w
		wn.NumAnalyses = n
		for _, drh := range []int{4, 8, 16} {
			for _, frac := range []float64{0.25, 0.50} {
				cells = append(cells, drFrac{drh, frac})
				works = append(works, wn)
			}
		}
	}
	vols, err := resimVolumeGrid(cells, func(i int) CostWorkload { return works[i] })
	if err != nil {
		return nil, err
	}
	i := 0
	for _, n := range counts {
		wn := w
		wn.NumAnalyses = n
		x := fmt.Sprintf("%d", n)
		for _, drh := range []int{4, 8, 16} {
			for _, frac := range []float64{0.25, 0.50} {
				ctx := costCtx(drh, frac)
				name := fmt.Sprintf("SimFS(%d%%) Δr=%dh", int(frac*100), drh)
				tab.Series(name).Add(x, costmodel.SimFS(ctx, months, frac, vols[i], p)/1000)
				i++
			}
		}
		ref := costCtx(8, 0.25)
		_, starts, lengths := wn.generate(ref)
		tab.Series("on-disk").Add(x, costmodel.OnDisk(ref, months, p)/1000)
		tab.Series("in-situ").Add(x, costmodel.InSitu(ref, starts, lengths, p)/1000)
	}
	return tab, nil
}

// Fig15a builds the cost-effectiveness heatmap: the ratio between the
// cheapest standard solution and SimFS over a grid of storage and compute
// prices (100 analyses, 50% overlap, ∆t = 3y, cache 25%, Δr = 8h).
func Fig15a(w CostWorkload) (*metrics.Heatmap, error) {
	h := metrics.NewHeatmap("Fig. 15a — cost ratio min(on-disk,in-situ)/SimFS", "storage $/GiB/mo", "compute $/node/h")
	const months = 36.0
	ctx := costCtx(8, 0.25)
	v, err := resimVolume(ctx, w)
	if err != nil {
		return nil, err
	}
	_, starts, lengths := w.generate(ctx)
	for _, cs := range []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30} {
		for _, cc := range []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0} {
			p := costmodel.Prices{ComputePerNodeHour: cc, StoragePerGiBMonth: cs}
			ratio := costmodel.Ratio(
				costmodel.OnDisk(ctx, months, p),
				costmodel.InSitu(ctx, starts, lengths, p),
				costmodel.SimFS(ctx, months, 0.25, v, p),
			)
			h.Set(fmt.Sprintf("%.2f", cs), fmt.Sprintf("%.1f", cc), ratio)
		}
	}
	return h, nil
}

// Fig15bc sweeps the restart interval (restart-file space) for cache sizes
// of 25% and 50%, reporting the total cost (15b) and the aggregate
// re-simulation compute time (15c) at ∆t = 3y. The eight (Δr, cache)
// volumes run in parallel.
func Fig15bc(w CostWorkload, p costmodel.Prices) (cost, ctime *metrics.Table, err error) {
	cost = metrics.NewTable("Fig. 15b — cost over restart space (∆t=3y)", "Δr (restart space)", "cost (x1000$)")
	ctime = metrics.NewTable("Fig. 15c — re-simulation time over restart space", "Δr (restart space)", "compute time (hours)")
	const months = 36.0
	drhs := []int{4, 8, 16, 32}
	var cells []drFrac
	for _, drh := range drhs {
		for _, frac := range []float64{0.25, 0.50} {
			cells = append(cells, drFrac{drh, frac})
		}
	}
	vols, verr := resimVolumeGrid(cells, func(int) CostWorkload { return w })
	if verr != nil {
		return nil, nil, verr
	}
	i := 0
	for _, drh := range drhs {
		ref := costCtx(drh, 0.25)
		x := fmt.Sprintf("%dh (%.2f TiB)", drh, costmodel.RestartSpaceGiB(ref)/1024)
		for _, frac := range []float64{0.25, 0.50} {
			ctx := costCtx(drh, frac)
			name := fmt.Sprintf("cache %d%%", int(frac*100))
			cost.Series(name).Add(x, costmodel.SimFS(ctx, months, frac, vols[i], p)/1000)
			ctime.Series(name).Add(x, costmodel.ResimTime(vols[i], ctx.Tau).Hours())
			i++
		}
		cost.Series("on-disk").Add(x, costmodel.OnDisk(ref, months, p)/1000)
	}
	return cost, ctime, nil
}
