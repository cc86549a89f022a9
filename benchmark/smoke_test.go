package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the subset of ../BENCHMARK.json the smoke test pins.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMetricNamesMatchBenchmarkFile pins the program's metric and
// workload tables to BENCHMARK.json, names and units.
func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	var e2e, layer, wl []string
	for _, m := range f.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range f.PerLayer {
		layer = append(layer, m.Name+" "+m.Unit)
	}
	for _, w := range f.Workloads {
		wl = append(wl, w.Name)
	}
	var wantE2E, wantLayer, wantWl []string
	for _, d := range endToEnd {
		wantE2E = append(wantE2E, d.name+" "+d.unit)
	}
	for _, d := range perLayer {
		wantLayer = append(wantLayer, d.name+" "+d.unit)
	}
	for _, fam := range families {
		wantWl = append(wantWl, fam.name)
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{{"end_to_end", e2e, wantE2E}, {"per_layer", layer, wantLayer}, {"workloads", wl, wantWl}} {
		if strings.Join(c.got, ",") != strings.Join(c.want, ",") {
			t.Errorf("BENCHMARK.json %s = %v, program has %v", c.what, c.got, c.want)
		}
	}
}

// TestSmokeTiny runs every workload end to end at tiny sizes, untraced
// and traced, and checks that the result line is correct and carries
// exactly the metric names BENCHMARK.json lists.
func TestSmokeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := readBenchmarkFile(t)
	for _, w := range f.Workloads {
		for _, tr := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := realMain([]string{"--workload", w.Name, "--seed", "5", "--seconds", "0.2", "--trace", tr,
				"--tiny", "--scratch", t.TempDir()}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w.Name, tr, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Failed    int                        `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line is not the result: %v", w.Name, tr, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d\n%s", w.Name, tr, res.Correct, res.Attempted, res.Failed, stdout.String())
			}
			var want []string
			if tr == "0" {
				for _, m := range f.EndToEnd {
					want = append(want, m.Name)
				}
			} else {
				for _, m := range f.PerLayer {
					want = append(want, m.Name)
				}
			}
			var got []string
			for k := range res.Metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			sort.Strings(want)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace %s: metrics %v, want %v", w.Name, tr, got, want)
			}
		}
	}
}
