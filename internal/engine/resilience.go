package engine

import (
	"errors"

	"repro/internal/query"
)

// This file is the engine's resilience surface: the reader-health monitor's
// coupling to the sensing model and the deadline error helpers (DESIGN.md
// §12). The deadline-aware query entry points and the degraded-mode
// particle budget live on Sharded, the engine that serves them.

// refreshHealth pushes the monitor's current unhealthy-reader set into the
// sensing-model consumers. Called only when the monitor reports a state
// change, so in a fully healthy deployment the filter and pruner keep their
// nil sets and the original code paths, bit for bit.
func (s *System) refreshHealth() {
	un := s.monitor.Unhealthy()
	s.filter.SetUnhealthy(un)
	s.pruner.SetUnhealthy(un)
	s.tel.healthTransitions.Inc()
}

// firstDeadline returns the earliest-stage deadline error among errs (they
// arrive in pipeline order), or nil.
func firstDeadline(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// IsDeadline reports whether err is a query deadline overrun and extracts
// the typed error.
func IsDeadline(err error) (*query.DeadlineError, bool) {
	var de *query.DeadlineError
	if errors.As(err, &de) {
		return de, true
	}
	return nil, false
}
