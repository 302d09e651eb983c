package main

import (
	"math"

	"catpa/internal/mc"
	"catpa/internal/partition"
)

// countingBackend is a pass-through partition.Backend that counts the
// analysis effort the allocator asks of the backend it wraps. It hides
// the concrete backend type, so a Partitioner built on it runs the
// generic interface-dispatch pick loops instead of the devirtualized
// EDF-VD scans: its counts describe the generic dispatch path. Its
// verdicts must be bitwise those of the unwrapped backend.
type countingBackend struct {
	be partition.Backend

	feasible, feasibleOK int64 // FeasibleWith calls, and how many said yes
	probes, probesOK     int64 // ProbeUtil calls, and how many were finite
	places, removes      int64 // committed deltas
}

var _ partition.Backend = (*countingBackend)(nil)

func (c *countingBackend) Name() string             { return c.be.Name() }
func (c *countingBackend) MaxLevels() int           { return c.be.MaxLevels() }
func (c *countingBackend) Reset(m, k int)           { c.be.Reset(m, k) }
func (c *countingBackend) Prepare(ts *mc.TaskSet)   { c.be.Prepare(ts) }
func (c *countingBackend) Begin()                   { c.be.Begin() }
func (c *countingBackend) KeepProbe()               { c.be.KeepProbe() }
func (c *countingBackend) Reanalyze(core int)       { c.be.Reanalyze(core) }
func (c *countingBackend) OwnLoad(core int) float64 { return c.be.OwnLoad(core) }

func (c *countingBackend) FeasibleWith(core, ti int) bool {
	ok := c.be.FeasibleWith(core, ti)
	c.feasible++
	if ok {
		c.feasibleOK++
	}
	return ok
}

func (c *countingBackend) ProbeUtil(core, ti int, worst bool) float64 {
	u := c.be.ProbeUtil(core, ti, worst)
	c.probes++
	if !math.IsInf(u, 1) {
		c.probesOK++
	}
	return u
}

func (c *countingBackend) UtilFloor(core, ti int) float64 {
	return c.be.UtilFloor(core, ti)
}

func (c *countingBackend) Place(core, ti int, probed bool) {
	c.places++
	c.be.Place(core, ti, probed)
}

func (c *countingBackend) Remove(core, ti int) {
	c.removes++
	c.be.Remove(core, ti)
}

func (c *countingBackend) CoreUtil(core int, worst bool) float64 {
	return c.be.CoreUtil(core, worst)
}

func (c *countingBackend) ReportInto(core int, ci *partition.CoreInfo) {
	c.be.ReportInto(core, ci)
}

// attempts is the number of virtual schedulability questions asked.
func (c *countingBackend) attempts() int64 { return c.feasible + c.probes }

// useful is the number of those questions that found room.
func (c *countingBackend) useful() int64 { return c.feasibleOK + c.probesOK }

// newCounted returns a Partitioner on a counting wrapper around a fresh
// instance of the named backend.
func newCounted(backend string, m, k int) (*partition.Partitioner, *countingBackend, error) {
	be, err := partition.NewBackend(backend)
	if err != nil {
		return nil, nil, err
	}
	cb := &countingBackend{be: be}
	return partition.NewWithBackend(m, k, cb), cb, nil
}

// effort accumulates one backend's counts with the number of task
// decisions (placements plus failed placements) and releases they
// served, for the per-task ratios of the traced report.
type effort struct {
	cb        *countingBackend
	decisions int64
	releases  int64
}

// report notes the effort figures under prefix, or records them as
// JSON metrics when asMetrics is set.
func (e *effort) report(out *report, prefix string, asMetrics bool) {
	put := out.note
	if asMetrics {
		put = out.set
	}
	cb := e.cb
	put(prefix+".probes_per_task", ratio(float64(cb.attempts()), float64(e.decisions)), "count")
	put(prefix+".probe_accept_ratio", ratio(float64(cb.useful()), float64(cb.attempts())), "ratio")
	if asMetrics || e.releases > 0 {
		put(prefix+".remove_per_release", ratio(float64(cb.removes), float64(e.releases)), "ratio")
	}
}
