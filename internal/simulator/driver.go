// Package simulator implements the simulator side of SimFS: the
// simulator-specific checksum of SIMFS_Bitrep (paper Sec. III-B's driver
// supplies it; naming lives in model.Context), the synthetic simulator's
// published COSMO and FLASH parameters, and the launcher that executes
// re-simulations — over the discrete-event engine (virtual time, used by
// all experiments) or on the wall clock, writing files to a storage area
// (used by the daemon, examples and integration tests).
package simulator

import (
	"hash/fnv"
	"time"

	"simfs/internal/model"
)

// Checksum is the simulator-specific checksum of file content behind
// SIMFS_Bitrep (paper Sec. III-C2): FNV-1a, standing in for the checksum
// the original system's simulation driver computes.
func Checksum(content []byte) uint64 {
	h := fnv.New64a()
	h.Write(content)
	return h.Sum64()
}

// Published experiment configurations (paper Secs. V-A and VI). Sizes are
// model quantities: the virtual-time experiments never materialize them,
// and the real-time launcher writes scaled-down files.

// CosmoScaling returns the COSMO configuration of the strong-scaling
// experiment (Fig. 16): 1-minute timesteps, one output step every 5
// minutes, one restart per hour, τsim = 3 s, αsim = 13 s on P = 100 nodes.
func CosmoScaling() *model.Context {
	c := &model.Context{
		Name: "cosmo",
		Grid: model.Grid{DeltaD: 5, DeltaR: 60, Timesteps: 5760}, // 4 simulated days
		// so = 6 GiB from the cost-model calibration; the scaling
		// experiment never stores data volumes, only counts.
		OutputBytes:        6 << 30,
		RestartBytes:       36 << 30,
		Tau:                3 * time.Second,
		Alpha:              13 * time.Second,
		DefaultParallelism: 100,
		MaxParallelism:     100,
		SMax:               8,
	}
	c.ApplyDefaults()
	return c
}

// CosmoCost returns the COSMO configuration used to calibrate the cost
// models (Sec. V-A): 20 s timesteps, Δd = 15, τsim(100) = 20 s, 50 TiB
// total output.
func CosmoCost() *model.Context {
	c := &model.Context{
		Name: "cosmo-cost",
		// 30-day simulation at 20s timesteps: 129600 timesteps, Δd=15 →
		// 8640 output steps × 6 GiB ≈ 50 TiB, the paper's total volume.
		// Δr=8h (1440 timesteps) by default → 90 restarts × 36 GiB =
		// 3.16 TiB, matching the restart-space axis of Fig. 15b; the
		// experiments override Δr for the 4h/16h variants.
		Grid:               model.Grid{DeltaD: 15, DeltaR: 1440, Timesteps: 129600},
		OutputBytes:        6 << 30,
		RestartBytes:       36 << 30,
		Tau:                20 * time.Second,
		Alpha:              13 * time.Second,
		DefaultParallelism: 100,
		MaxParallelism:     100,
		SMax:               8,
	}
	c.ApplyDefaults()
	return c
}

// Flash returns the FLASH Sedov blast-wave configuration (Fig. 18):
// 0.005 s timesteps, one output step per timestep, one restart every 0.1 s
// (Δr = 20), τsim = 14 s, αsim = 7 s.
func Flash() *model.Context {
	c := &model.Context{
		Name:               "flash",
		Grid:               model.Grid{DeltaD: 1, DeltaR: 20, Timesteps: 1200},
		OutputBytes:        1 << 30,
		RestartBytes:       2 << 30,
		Tau:                14 * time.Second,
		Alpha:              7 * time.Second,
		DefaultParallelism: 54,
		MaxParallelism:     54,
		SMax:               8,
	}
	c.ApplyDefaults()
	return c
}

// CacheEval returns the configuration of the replacement-scheme evaluation
// (Fig. 5): a 4-day simulation producing an output step every 5 minutes
// and a restart file every 4 hours, with the cache set to 25% of the data
// volume.
func CacheEval() *model.Context {
	c := &model.Context{
		Name: "cache-eval",
		// 1-minute timesteps over 4 days: Δd=5 (5 min), Δr=240 (4 h).
		Grid:               model.Grid{DeltaD: 5, DeltaR: 240, Timesteps: 5760},
		OutputBytes:        1 << 30,
		RestartBytes:       4 << 30,
		Tau:                3 * time.Second,
		Alpha:              13 * time.Second,
		DefaultParallelism: 100,
		MaxParallelism:     100,
		SMax:               8,
	}
	c.MaxCacheBytes = c.TotalOutputBytes() / 4
	c.ApplyDefaults()
	return c
}
