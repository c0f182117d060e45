package shard

import (
	"math/rand"
	"testing"

	"wlq/internal/core/eval"
	"wlq/internal/gen"
)

// FuzzShardedEquivalence differentially tests the partition against
// Definition 4: for a random log and a random pattern (negation included),
// evaluating in k range shards must be complete and byte-identical to the
// unsharded evaluator, under either join strategy.
func FuzzShardedEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(4), uint8(2), false)
	f.Add(int64(7), uint8(40), uint8(9), uint8(3), true)
	f.Add(int64(3), uint8(1), uint8(0), uint8(0), false)
	f.Add(int64(11), uint8(5), uint8(7), uint8(1), true)
	f.Fuzz(func(t *testing.T, seed int64, instances, k, operators uint8, naive bool) {
		alphabet := gen.Alphabet(4)
		l := gen.MustRandomLog(gen.LogParams{
			Instances:  1 + int(instances)%40,
			MeanLength: 5,
			Alphabet:   alphabet,
			Seed:       seed,
		})
		p := gen.RandomPattern(rand.New(rand.NewSource(seed)), gen.PatternParams{
			Operators:  int(operators) % 4,
			Alphabet:   alphabet,
			NegateProb: 0.3,
		})
		strategy := eval.StrategyMerge
		if naive {
			strategy = eval.StrategyNaive
		}
		assertShardedEqual(t, eval.NewIndex(l), int(k)%10, p, strategy)
	})
}
