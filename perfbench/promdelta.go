package main

import (
	"io"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Scrape is one /metrics document flattened to series key → value. The key
// is the sample name followed by its labels sorted by name, e.g.
// `repro_cache_events_total{event="hit"}`.
type Scrape map[string]float64

// ParseScrape parses a Prometheus text document with the repository's own
// strict reader (obs.ParseText), so a malformed scrape fails the run.
func ParseScrape(r io.Reader) (Scrape, error) {
	fams, err := obs.ParseText(r)
	if err != nil {
		return nil, err
	}
	s := Scrape{}
	for _, f := range fams {
		for _, smp := range f.Samples {
			s[seriesKey(smp.Name, smp.Labels)] = smp.Value
		}
	}
	return s, nil
}

func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	ks := make([]string, 0, len(labels))
	for k := range labels {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range ks {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(labels[k])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Delta returns after − before for every series in after. A series absent
// before counts from zero (a labelled child created during the window).
func Delta(before, after Scrape) Scrape {
	d := Scrape{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// Add merges o into s by summing values series by series (one scrape per
// cluster node folded into one).
func (s Scrape) Add(o Scrape) {
	for k, v := range o {
		s[k] += v
	}
}

// Sum adds every series of sample name whose labels include all of match
// (`k="v"` pairs); an empty match sums the whole family sample.
func (s Scrape) Sum(name string, match ...string) float64 {
	total := 0.0
	for k, v := range s {
		base, labels, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		ok := true
		for _, m := range match {
			if !strings.Contains(","+strings.TrimSuffix(labels, "}")+",", ","+m+",") {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// Each calls fn for every series of sample name with its label string.
func (s Scrape) Each(name string, fn func(labels string, v float64)) {
	keys := make([]string, 0)
	for k := range s {
		if base, _, _ := strings.Cut(k, "{"); base == name {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		_, labels, _ := strings.Cut(k, "{")
		fn(strings.TrimSuffix(labels, "}"), s[k])
	}
}
