package obs

// Snapshot is a point-in-time, JSON-marshalable copy of every instrument
// in a registry, so a run's results can carry its instrument data.
type Snapshot struct {
	Counters   []Point          `json:"counters,omitempty"`
	Gauges     []Point          `json:"gauges,omitempty"`
	Histograms []HistogramPoint `json:"histograms,omitempty"`
}

// Point is one counter or gauge cell.
type Point struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// HistogramPoint is one histogram cell with cumulative buckets.
type HistogramPoint struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Buckets []Bucket          `json:"buckets,omitempty"`
}

// Bucket is one cumulative histogram bucket; LE is the exposition-format
// upper bound ("+Inf" for the overflow bucket).
type Bucket struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// Snapshot copies every instrument value out of the registry. Scrape
// hooks run first, exactly as for WriteTo. Nil-safe: a nil registry
// yields a zero snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	fams, hooks := r.collect()
	for _, fn := range hooks {
		fn()
	}
	for _, f := range fams {
		f.mu.RLock()
		for _, key := range f.sortedKeys() {
			values := splitKey(key, len(f.labels))
			labels := labelMap(f.labels, values)
			switch c := f.cells[key].(type) {
			case *Counter:
				s.Counters = append(s.Counters, Point{f.name, labels, float64(c.Value())})
			case *Gauge:
				s.Gauges = append(s.Gauges, Point{f.name, labels, c.Value()})
			case *Histogram:
				hp := HistogramPoint{Name: f.name, Labels: labels, Count: c.Count(), Sum: c.Sum()}
				var cum uint64
				for i := range c.counts {
					cum += c.counts[i].Load()
					le := "+Inf"
					if i < len(c.bounds) {
						le = formatFloat(c.bounds[i])
					}
					hp.Buckets = append(hp.Buckets, Bucket{le, cum})
				}
				s.Histograms = append(s.Histograms, hp)
			}
		}
		f.mu.RUnlock()
	}
	return s
}

func labelMap(names, values []string) map[string]string {
	if len(names) == 0 {
		return nil
	}
	m := make(map[string]string, len(names))
	for i, n := range names {
		m[n] = values[i]
	}
	return m
}

// Value returns the counter or gauge point whose name and full label set
// match exactly, and whether it exists.
func (s Snapshot) Value(name string, labels map[string]string) (float64, bool) {
	for _, lists := range [2][]Point{s.Counters, s.Gauges} {
		for _, p := range lists {
			if p.Name == name && labelsEqual(p.Labels, labels) {
				return p.Value, true
			}
		}
	}
	return 0, false
}

// Total sums every counter and gauge point of family name whose labels
// include all the given key/value pairs (pass nil to sum the whole
// family).
func (s Snapshot) Total(name string, match map[string]string) float64 {
	var total float64
	for _, lists := range [2][]Point{s.Counters, s.Gauges} {
		for _, p := range lists {
			if p.Name != name || !labelsContain(p.Labels, match) {
				continue
			}
			total += p.Value
		}
	}
	return total
}

func labelsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func labelsContain(labels, match map[string]string) bool {
	for k, v := range match {
		if labels[k] != v {
			return false
		}
	}
	return true
}
