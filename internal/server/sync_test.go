package server

import (
	"testing"
	"time"

	"simfs/internal/model"
)

func syncTestContext(name string) *model.Context {
	return &model.Context{
		Name:               name,
		Grid:               model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: 16},
		OutputBytes:        128,
		RestartBytes:       64,
		Tau:                time.Millisecond,
		Alpha:              time.Millisecond,
		DefaultParallelism: 1,
		MaxParallelism:     1,
		SMax:               4,
	}
}

// SyncContexts reconciles the daemon against a desired set: new contexts
// register, stale ones drain and deregister, existing ones are untouched.
func TestSyncContextsAddAndRemove(t *testing.T) {
	st, _ := testStack(t)

	// Add a second context.
	desired := []*model.Context{syncTestContext("clim"), syncTestContext("aux")}
	added, removed, err := st.SyncContexts(desired, "DCL", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 1 || added[0] != "aux" || len(removed) != 0 {
		t.Fatalf("sync added=%v removed=%v, want added=[aux]", added, removed)
	}
	if _, ok := st.V.Context("aux"); !ok {
		t.Fatal("aux not registered after sync")
	}
	if _, err := st.V.StorageArea("aux"); err != nil {
		t.Fatal("aux has no storage area after sync")
	}

	// A no-op sync changes nothing.
	added, removed, err = st.SyncContexts(desired, "DCL", false)
	if err != nil || len(added) != 0 || len(removed) != 0 {
		t.Fatalf("idempotent sync: added=%v removed=%v err=%v", added, removed, err)
	}

	// Dropping clim from the desired set drains and deregisters it.
	added, removed, err = st.SyncContexts([]*model.Context{syncTestContext("aux")}, "DCL", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != "clim" || len(added) != 0 {
		t.Fatalf("sync added=%v removed=%v, want removed=[clim]", added, removed)
	}
	if _, ok := st.V.Context("clim"); ok {
		t.Fatal("clim still registered after removal sync")
	}
}

// A stale context with live references survives the sync (draining) and
// is removed by a later one after the workload empties.
func TestSyncContextsBusyStaysDraining(t *testing.T) {
	st, _ := testStack(t)
	ctx, _ := st.V.Context("clim")
	file := ctx.Filename(1)
	// Make the file resident so the open is a pure cache hit (a miss
	// would hold a live re-simulation, muddying the refcount check).
	area, _ := st.V.StorageArea("clim")
	if err := area.Create(file, ctx.OutputBytes); err != nil {
		t.Fatal(err)
	}
	if _, err := st.V.RescanStorageArea("clim"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.V.Open("holder", "clim", file); err != nil {
		t.Fatal(err)
	}

	_, removed, err := st.SyncContexts(nil, "DCL", false)
	if err == nil {
		t.Fatal("sync removed a context with live references")
	}
	if len(removed) != 0 {
		t.Fatalf("removed = %v, want none", removed)
	}
	if _, ok := st.V.Context("clim"); !ok {
		t.Fatal("busy context vanished")
	}
	if r, _ := st.V.Report("clim"); !r.Draining {
		t.Error("busy stale context should be left draining")
	}

	// Release the reference; the next sync completes the removal.
	if err := st.V.Release("holder", "clim", file); err != nil {
		t.Fatal(err)
	}
	_, removed, err = st.SyncContexts(nil, "DCL", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != "clim" {
		t.Fatalf("retry sync removed %v, want [clim]", removed)
	}
}
