package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is -compare's judgement of one workload x end-to-end metric.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// judge compares b against baseline a for one bounded metric. The
// difference is relative to a, signed so that positive means worse. A
// within-run spread wider than the bound means the pair cannot resolve a
// change of that size, and says so instead of passing or failing.
func judge(d metricDef, a, b row) (worsePct float64, v verdict) {
	diff := b.Value - a.Value
	if d.better == "higher" {
		diff = -diff
	}
	switch {
	case a.Value != 0:
		worsePct = 100 * diff / a.Value
	case diff > 0:
		worsePct = 100 // from nothing to something
	}
	switch {
	case worsePct <= d.boundPct:
		return worsePct, verdictOK
	case max(a.SpreadPct, b.SpreadPct) > d.boundPct:
		return worsePct, verdictUnresolved
	default:
		return worsePct, verdictWorse
	}
}

func readDocument(path string) (document, error) {
	var doc document
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// compareFiles prints one line per workload x end-to-end metric present
// in both reports and reports whether any came out worse.
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	type key struct{ workload, metric string }
	base := make(map[key]row, len(a.Rows))
	for _, x := range a.Rows {
		base[key{x.Workload, x.Metric}] = x
	}
	compared := 0
	for _, y := range b.Rows {
		d, known := defByName[y.Metric]
		x, both := base[key{y.Workload, y.Metric}]
		if !known || !both || d.boundPct < 0 || (x.Samples == 0 && y.Samples == 0) {
			continue
		}
		worsePct, v := judge(d, x, y)
		fmt.Fprintf(w, "%s %s %s -> %s %s %+.2f%% (bound %g%%, spread %.2f%%) %s\n",
			y.Workload, y.Metric, fmtValue(x.Value), fmtValue(y.Value), y.Unit,
			worsePct, d.boundPct, max(x.SpreadPct, y.SpreadPct), v)
		anyWorse = anyWorse || v == verdictWorse
		compared++
	}
	if compared == 0 {
		return false, fmt.Errorf("%s and %s share no end-to-end rows", pathA, pathB)
	}
	return anyWorse, nil
}
