package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compareMain compares two sets of untraced results, each a directory of
// the records runs leave in .bench_build/results (or single record files):
//
//	e2ebench compare <parent-results> <change-results>
//
// Results from different host fingerprints are reported as incomparable
// (exit 2), never compared. Otherwise each end-to-end metric's median is
// checked against its bound in BENCHMARK.json (exit 1 on a regression).
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench compare <parent-results> <change-results>")
		return 2
	}
	sets := make([][]record, 2)
	for i, p := range args {
		recs, err := loadRecords(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench compare:", err)
			return 2
		}
		if len(recs) == 0 {
			fmt.Fprintf(os.Stderr, "e2ebench compare: no untraced results in %s\n", p)
			return 2
		}
		sets[i] = recs
	}
	if bad := fingerprintMismatches(append(append([]record(nil), sets[0]...), sets[1]...)); len(bad) > 0 {
		fmt.Printf("incomparable: results come from different hosts or settings: %s\n", strings.Join(bad, "; "))
		return 2
	}
	bounds, err := loadBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench compare:", err)
		return 2
	}
	regressed := false
	fmt.Printf("%-14s %-22s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "parent", "change", "change%", "spread%", "bound%", "verdict")
	for _, wl := range workloadNames(sets) {
		for _, b := range bounds {
			a, c := values(sets[0], wl, b.Name), values(sets[1], wl, b.Name)
			if len(a) == 0 || len(c) == 0 {
				continue
			}
			ma, mc := median(a), median(c)
			worse := (mc - ma) / ma
			if b.Better == "higher" {
				worse = -worse
			}
			spread := iqrShare(a)
			verdict := "ok"
			switch {
			case worse > b.Bound:
				verdict = "regressed"
				regressed = true
			case b.Name != "setup_s" && spread > b.Bound:
				verdict = "unresolved (spread exceeds bound)"
			}
			fmt.Printf("%-14s %-22s %12.4f %12.4f %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl, b.Name, ma, mc, 100*(mc-ma)/ma, 100*spread, 100*b.Bound, verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(path string) ([]bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

func loadRecords(path string) ([]record, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
	}
	var out []record
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !r.Trace && r.Correct {
			out = append(out, r)
		}
	}
	return out, nil
}

// fingerprintMismatches lists how the records' host fingerprints differ
// from the first record's.
func fingerprintMismatches(recs []record) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range recs[1:] {
		for _, m := range recs[0].Fingerprint.mismatches(r.Fingerprint) {
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
	}
	return out
}

func workloadNames(sets [][]record) []string {
	seen := map[string]bool{}
	var out []string
	for _, set := range sets {
		for _, r := range set {
			if !seen[r.Workload] {
				seen[r.Workload] = true
				out = append(out, r.Workload)
			}
		}
	}
	sort.Strings(out)
	return out
}

func values(recs []record, workload, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// iqrShare is the distance between the first and third quartiles as a
// share of the median, with quartiles taken as Python's
// statistics.quantiles(xs, n=4) takes them (the exclusive method).
func iqrShare(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(j int) float64 {
		m := float64(j*(n+1)) / 4
		i := int(math.Floor(m))
		frac := m - float64(i)
		switch {
		case i < 1:
			return s[0]
		case i >= n:
			return s[n-1]
		}
		return s[i-1] + frac*(s[i]-s[i-1])
	}
	return (q(3) - q(1)) / median(xs)
}
