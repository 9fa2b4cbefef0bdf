package core

import (
	"dime/internal/entity"
	"dime/internal/obs"
)

// Session maintains DIME+ state incrementally as a group grows — the
// natural mode for the paper's motivating applications, where a Scholar
// page or a product category gains entities over time. Step 1 runs on
// DIMEPlus's engine, streaming on one goroutine, and is maintained per added
// entity: only the new entity's candidate pairs are verified. Steps 2 and 3
// depend on global partition sizes, so Result recomputes them on demand.
// Over a whole group a session returns exactly — stats included — what
// DIMEPlus returns with IntraWorkers 1 and BenefitSortLimit 1.
//
// Correctness note: the signature context freezes its token/gram orderings
// and ontology depth floors at construction. Orderings stay valid for any
// addition (they remain one consistent global order); the depth floors can
// be invalidated by nodes shallower than anything seen before, in which
// case the session transparently rebuilds from scratch (Add reports whether
// it did).
type Session struct {
	opts  Options
	group *entity.Group
	st    *step1
}

// NewSession runs the initial partitioning over the group and returns a
// session ready for Add calls. The group is referenced, not copied; do not
// mutate it except through Add.
func NewSession(g *entity.Group, opts Options) (*Session, error) {
	if err := opts.validate(g); err != nil {
		return nil, err
	}
	s := &Session{opts: opts, group: g}
	if err := s.rebuild(); err != nil {
		return nil, err
	}
	return s, nil
}

// rebuild constructs the step-1 state from the current group contents and
// partitions it streaming, on the calling goroutine. Stats carry over, so
// they count all the work the session has done.
func (s *Session) rebuild() error {
	run := obs.Start(s.opts.Probe, "session-rebuild", obs.A("group", s.group.Name))
	defer run.End()
	st, err := newStep1(run, s.group, &s.opts, false)
	if err != nil {
		return err
	}
	if s.st != nil {
		st.stats = s.st.stats
	}
	st.partition(run, false)
	s.st = st
	return nil
}

// Add appends one entity to the group and folds it into the partitioning.
// It returns true when the addition forced a full rebuild (a new ontology
// node undercut the frozen signature depth floors) and false on the normal
// incremental path. The resulting partitions are identical either way.
func (s *Session) Add(e *entity.Entity) (rebuilt bool, err error) {
	if err := s.group.Add(e); err != nil {
		return false, err
	}
	run := obs.Start(s.opts.Probe, "session-add", obs.A("group", s.group.Name), obs.A("entity", e.ID))
	defer run.End()
	added, err := s.st.add(run, e)
	if err != nil {
		// Roll the group back so the session stays consistent.
		s.group.Entities = s.group.Entities[:len(s.group.Entities)-1]
		return false, err
	}
	if !added {
		run.Count("rebuilds", 1)
		return true, s.rebuild()
	}
	return false, nil
}

// Size returns the current entity count.
func (s *Session) Size() int { return len(s.st.recs) }

// Result runs pivot selection and the negative rules over the current
// partitions and returns a full Result, identical to what DIMEPlus would
// produce on the group from scratch. It only reads the session, so calls
// with no Add in between return equal Results.
func (s *Session) Result() (*Result, error) {
	run := obs.Start(s.opts.Probe, "session-result", obs.A("group", s.group.Name))
	defer run.End()
	return s.st.result(run, s.group), nil
}

// Partitions returns the current partitions without running the negative
// phase (cheap; useful for monitoring as entities stream in).
func (s *Session) Partitions() [][]int { return s.st.uf.Sets() }
