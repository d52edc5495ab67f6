package autoscale

import (
	"errors"
	"sync"

	"musuite/internal/cluster"
	"musuite/internal/core"
)

// SpareTarget scales a live topology by moving pre-provisioned spare leaf
// groups in and out of service: ScaleUp takes the next group from the spare
// pool and adds it, ScaleDown drains the most recently added group and
// returns its addresses to the pool.  This is the warm-spares model: the
// spare processes are already running and loaded, so a scale-up is a dial + topology publish, not a
// cold start.
type SpareTarget struct {
	statsFn func() (core.TierStats, error)
	addFn   func(addrs []string) (int, error)
	drainFn func(shard int) error

	mu     sync.Mutex
	spares [][]string
	added  []addedGroup
}

type addedGroup struct {
	shard int
	addrs []string
}

// NewSpareTarget builds a SpareTarget from a stats source, topology
// actuators, and the spare address-group pool.
func NewSpareTarget(
	stats func() (core.TierStats, error),
	add func(addrs []string) (int, error),
	drain func(shard int) error,
	spares [][]string,
) *SpareTarget {
	pool := make([][]string, len(spares))
	copy(pool, spares)
	return &SpareTarget{statsFn: stats, addFn: add, drainFn: drain, spares: pool}
}

// Stats implements Target.
func (s *SpareTarget) Stats() (core.TierStats, error) { return s.statsFn() }

// Spares reports the groups still available to ScaleUp.
func (s *SpareTarget) Spares() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.spares)
}

// ScaleUp places the next spare group in service.
func (s *SpareTarget) ScaleUp() (int, error) {
	s.mu.Lock()
	if len(s.spares) == 0 {
		s.mu.Unlock()
		return -1, ErrNoSpares
	}
	group := s.spares[len(s.spares)-1]
	s.spares = s.spares[:len(s.spares)-1]
	s.mu.Unlock()

	shard, err := s.addFn(group)
	if err != nil {
		s.mu.Lock()
		s.spares = append(s.spares, group)
		s.mu.Unlock()
		return -1, err
	}
	s.mu.Lock()
	s.added = append(s.added, addedGroup{shard: shard, addrs: group})
	s.mu.Unlock()
	return shard, nil
}

// ScaleDown drains the most recently added group and returns it to the
// spare pool.  Only groups this target added are ever drained: the baseline
// topology an operator configured is not the autoscaler's to shrink.
func (s *SpareTarget) ScaleDown() error {
	s.mu.Lock()
	if len(s.added) == 0 {
		s.mu.Unlock()
		return ErrNothingAdded
	}
	g := s.added[len(s.added)-1]
	s.added = s.added[:len(s.added)-1]
	s.mu.Unlock()

	err := s.drainFn(g.shard)
	if err != nil && !errors.Is(err, cluster.ErrDrainTimeout) {
		s.mu.Lock()
		s.added = append(s.added, g)
		s.mu.Unlock()
		return err
	}
	// Drained (or force-closed at the deadline, which still removes the
	// group): the addresses are idle spares again.
	s.mu.Lock()
	s.spares = append(s.spares, g.addrs)
	s.mu.Unlock()
	return nil
}
