package obs

// Obs bundles one simulation's registry and tracer. Layers receive a
// (possibly nil) *Obs at construction, create their instruments through it,
// and cache the handles; a nil *Obs yields nil instruments, so every
// instrumented call site degrades to a nil check.
type Obs struct {
	Reg   *Registry
	Trace *Tracer
}

// New builds an enabled Obs. traceCap <= 0 disables tracing (metrics only);
// use DefaultTraceCap for the harness default.
func New(traceCap int) *Obs {
	o := &Obs{Reg: NewRegistry()}
	if traceCap > 0 {
		o.Trace = NewTracer(traceCap)
	}
	return o
}

// Counter returns a named counter, or nil when o is nil.
func (o *Obs) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Reg.Counter(name)
}

// Gauge returns a named gauge, or nil when o is nil.
func (o *Obs) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Reg.Gauge(name)
}

// Histogram returns a named histogram, or nil when o is nil.
func (o *Obs) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	return o.Reg.Histogram(name)
}

// Tracer returns the span tracer, or nil when o is nil or tracing is off.
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.Trace
}

// Track registers a tracer track, or returns -1 when tracing is off.
func (o *Obs) Track(name string) int32 {
	if o == nil {
		return -1
	}
	return o.Trace.Track(name)
}
