package workload

import (
	"repro/internal/engine"
	"repro/internal/skipper"
	"repro/internal/tuple"
)

// Evaluate runs a query spec locally (no simulation, no costs) against the
// dataset's in-memory store — handy for result inspection and as the
// ground truth in tests. Data skipping is deliberately left OFF so the
// evaluator stays an oracle independent of the statistics subsystem:
// differential tests that compare a pruned execution against Evaluate
// exercise the pruning on/off boundary for free.
func Evaluate(ds *Dataset, spec skipper.QuerySpec) ([]tuple.Row, error) {
	return EvaluatePruned(ds, spec, false)
}

// EvaluatePruned is Evaluate with the data-skipping toggle exposed —
// skipperql's "-engine local", which honours -prune like any engine.
func EvaluatePruned(ds *Dataset, spec skipper.QuerySpec, prune bool) ([]tuple.Row, error) {
	ctx := engine.NewTestCtx(ds.Store)
	it, err := skipper.BuildPullPlanPruned(ctx, spec.Join, prune)
	if err != nil {
		return nil, err
	}
	if it, err = spec.Shaped(it); err != nil {
		return nil, err
	}
	return engine.Collect(it)
}
