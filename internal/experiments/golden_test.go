package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// update regenerates the golden tables instead of comparing against them:
//
//	go test ./internal/experiments -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden tables")

// goldenCfg pins the snapshot setup: the short 60 s horizon at seed 1
// with a single replication — the configuration whose rendered tables the
// seed's serial experiment loops produced. Any refactor of the experiment
// plumbing (including the harness rewiring) must keep these bytes.
var goldenCfg = Config{Duration: 60 * time.Second, Seed: 1, Replications: 1}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("table drifted from the golden snapshot %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestFigure5Golden(t *testing.T) {
	_, tbl, err := Figure5(goldenCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig5_60s_seed1.golden", tbl.String())
}

func TestBaselinePollersGolden(t *testing.T) {
	_, tbl, err := BaselinePollers(goldenCfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "baseline_60s_seed1.golden", tbl.String())
}

// shardGoldenCfg pins the sharded-kernel snapshots: 2 s at seed 1, short
// enough for every test run while still crossing 80 interference epochs.
var shardGoldenCfg = Config{Duration: 2 * time.Second, Seed: 1}

// TestScatternetStudyGolden pins E9, whose multi-piconet cells shard one
// kernel per piconet and couple the shards at interference epochs.
func TestScatternetStudyGolden(t *testing.T) {
	_, tbl, err := ScatternetStudy(shardGoldenCfg, []int{1, 2, 4}, []float64{60})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "scatternet_e9_2s_seed1.golden", tbl.String())
}

// TestBridgeStudyGolden pins E12, whose bridge-chained piconets co-shard
// into one kernel group.
func TestBridgeStudyGolden(t *testing.T) {
	_, tbl, err := BridgeStudy(shardGoldenCfg, []int{2}, []float64{0.5}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "bridge_e12_2s_seed1.golden", tbl.String())
}
