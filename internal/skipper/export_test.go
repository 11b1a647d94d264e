package skipper

import "repro/internal/segcache"

// IdleKernels counts the run kernels the fleet holds for its next runs.
func (f *Fleet) IdleKernels() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.idle)
}

// RunShared is Fleet.Run with a segment cache shared by the clients, as
// Cluster.Run runs its SharedCache.
func (f *Fleet) RunShared(clients []*Client, shared *segcache.Cache) (*RunResult, error) {
	return f.run(clients, shared, nil)
}
