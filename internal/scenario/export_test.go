package scenario

import (
	"testing"

	"bluegs/internal/sim"
)

// SetShardedStart installs f as the sharded-run start hook until t ends.
func SetShardedStart(t testing.TB, f func(shards []*sim.Simulator)) {
	prev := shardedStart
	shardedStart = f
	t.Cleanup(func() { shardedStart = prev })
}
