package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// SnapshotSchema versions the BENCH_*.json layout so trajectory
// tooling can reject files it does not understand.
const SnapshotSchema = "wpbench-snapshot/v1"

// Grid describes the shape of one evaluation run: how many workloads
// were prepared and how the requested cells split between fresh
// simulations and run-cache hits.
type Grid struct {
	Workloads int    `json:"workloads"`
	Cells     uint64 `json:"cells"`
	Simulated uint64 `json:"simulated"`
	CacheHits uint64 `json:"cache_hits"`
	// Groups counts the single-pass multi-model groups the engine
	// formed (cells sharing a workload, simulated by one sim.RunMulti
	// execution); CoalescedCells is how many of the
	// simulated cells were members of such groups. Both stay zero on
	// runs predating single-pass grouping or with it disabled, and are
	// then omitted from the JSON.
	Groups         uint64 `json:"groups,omitempty"`
	CoalescedCells uint64 `json:"coalesced_cells,omitempty"`
}

// Section is one timed phase of a run (prepare, each figure, each
// ablation), in execution order.
type Section struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Snapshot is the machine-readable record of one evaluation run —
// the payload of BENCH_wpbench.json. Derived fields (cells/sec,
// cache-hit ratio, instructions/sec) are computed by Finalize so the
// raw fields stay the single source of truth.
type Snapshot struct {
	Schema string `json:"schema"`
	// APIVersion records which wire-schema revision (api.Version) the
	// run's cells were described in, so snapshots written through
	// wpserved and offline runs stay comparable.
	APIVersion     string             `json:"api_version,omitempty"`
	Command        string             `json:"command"`
	GoVersion      string             `json:"go_version,omitempty"`
	UnixTime       int64              `json:"unix_time,omitempty"`
	Grid           Grid               `json:"grid"`
	WallSeconds    float64            `json:"wall_seconds"`
	CellsPerSecond float64            `json:"cells_per_second"`
	CacheHitRatio  float64            `json:"cache_hit_ratio"`
	Instructions   uint64             `json:"sim_instructions,omitempty"`
	InstrsPerSec   float64            `json:"sim_instructions_per_second,omitempty"`
	CellSecondsP50 float64            `json:"cell_seconds_p50,omitempty"`
	CellSecondsP95 float64            `json:"cell_seconds_p95,omitempty"`
	EnergyByScheme map[string]float64 `json:"energy_by_scheme,omitempty"`
	Sections       []Section          `json:"sections,omitempty"`
}

// Finalize computes the derived rate and ratio fields from the raw
// grid and wall-time fields.
func (s *Snapshot) Finalize() {
	if s.Schema == "" {
		s.Schema = SnapshotSchema
	}
	if s.WallSeconds > 0 {
		s.CellsPerSecond = float64(s.Grid.Cells) / s.WallSeconds
		s.InstrsPerSec = float64(s.Instructions) / s.WallSeconds
	}
	if s.Grid.Cells > 0 {
		s.CacheHitRatio = float64(s.Grid.CacheHits) / float64(s.Grid.Cells)
	}
}

// Encode writes the snapshot as indented JSON.
func (s *Snapshot) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteFile writes the snapshot to path.
func (s *Snapshot) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadSnapshotFile reads a snapshot back, validating the schema tag.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("obs: %s: %w", path, err)
	}
	if s.Schema != SnapshotSchema {
		return nil, fmt.Errorf("obs: %s: schema %q, want %q", path, s.Schema, SnapshotSchema)
	}
	return &s, nil
}
