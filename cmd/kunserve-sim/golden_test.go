//go:build !race

// The race detector slows every gate several-fold, so the race job skips
// this file, as it does the alloc_test.go guards.

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kunserve/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this tree's output")

// gate is one line of testdata/gates.txt.
type gate struct {
	name string
	args []string
}

// file is the golden file the gate's stdout must equal.
func (g gate) file() string {
	if slices.Contains(g.args, "-json") {
		return g.name + ".json"
	}
	return g.name + ".txt"
}

// TestGoldenGates runs every gate of testdata/gates.txt through run, in
// file order in this one process, and requires its stdout to equal
// testdata/golden/<name>.json or <name>.txt byte for byte. A -exp scale
// gate first loses scale.Timing, the host's wall clock. Gates that share a
// name share a file, so fig2 and disagg at -parallel 1 and 8 must print
// the same bytes. The golden bytes are what the simulator prints on amd64
// (float rounding may differ elsewhere), as kbench's pinned digests are.
// go test -run TestGoldenGates -update rewrites them from this tree; a
// change to them is a change to the simulator's output, which CHANGES.md
// names file by file.
func TestGoldenGates(t *testing.T) {
	golden, err := filepath.Abs(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	gates := readGates(t, filepath.Join("testdata", "gates.txt"))
	// Gate paths are relative to the repository root.
	t.Chdir(filepath.Join("..", ".."))
	written := map[string]bool{}
	for _, g := range gates {
		t.Run(g.file(), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := run(g.args, &stdout, &stderr); err != nil {
				t.Fatalf("%s: %v\n%s", strings.Join(g.args, " "), err, stderr.String())
			}
			got := stdout.Bytes()
			if i := slices.Index(g.args, "-exp"); i >= 0 && i+1 < len(g.args) && g.args[i+1] == "scale" {
				got = withoutTiming(t, got)
			}
			path := filepath.Join(golden, g.file())
			if *update && !written[path] {
				written[path] = true
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: output differs from %s: %s", strings.Join(g.args, " "), g.file(), firstDiff(got, want))
			}
		})
	}
}

func readGates(t *testing.T, path string) []gate {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var gates []gate
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		gates = append(gates, gate{fields[0], fields[1:]})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return gates
}

// withoutTiming re-encodes a -exp scale -json document, as run prints it,
// without its Timing.
func withoutTiming(t *testing.T, out []byte) []byte {
	t.Helper()
	var doc map[string]*experiments.ScaleResult
	if err := json.Unmarshal(out, &doc); err != nil || doc["scale"] == nil {
		t.Fatalf("not a -exp scale document (%v):\n%s", err, out)
	}
	doc["scale"].Timing = nil
	var b bytes.Buffer
	if err := emitJSON(&b, doc); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// firstDiff describes where got first departs from want: the first JSON
// path whose values differ (object keys in sorted order) when both are
// JSON, else the first differing line.
func firstDiff(got, want []byte) string {
	var g, w any
	if decode(got, &g) == nil && decode(want, &w) == nil {
		if p, ok := jsonDiff("$", g, w); ok {
			return p
		}
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			return fmt.Sprintf("line %d is %q, want %q", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(gl), len(wl))
}

func decode(b []byte, v any) error {
	d := json.NewDecoder(bytes.NewReader(b))
	d.UseNumber()
	return d.Decode(v)
}

// jsonDiff reports the first path under p at which g and w differ.
func jsonDiff(p string, g, w any) (string, bool) {
	switch gv := g.(type) {
	case map[string]any:
		wv, ok := w.(map[string]any)
		if !ok {
			break
		}
		keys := make([]string, 0, len(gv)+len(wv))
		for k := range gv {
			keys = append(keys, k)
		}
		for k := range wv {
			if _, ok := gv[k]; !ok {
				keys = append(keys, k)
			}
		}
		slices.Sort(keys)
		for _, k := range keys {
			gk, inG := gv[k]
			wk, inW := wv[k]
			switch {
			case !inW:
				return p + "." + k + " is not in the golden file", true
			case !inG:
				return p + "." + k + " is missing", true
			}
			if d, ok := jsonDiff(p+"."+k, gk, wk); ok {
				return d, true
			}
		}
		return "", false
	case []any:
		wv, ok := w.([]any)
		if !ok {
			break
		}
		for i := range min(len(gv), len(wv)) {
			if d, ok := jsonDiff(fmt.Sprintf("%s[%d]", p, i), gv[i], wv[i]); ok {
				return d, true
			}
		}
		if len(gv) == len(wv) {
			return "", false
		}
		return fmt.Sprintf("%s has %d elements, want %d", p, len(gv), len(wv)), true
	default:
		if g == w {
			return "", false
		}
	}
	return fmt.Sprintf("%s is %s, want %s", p, short(g), short(w)), true
}

// short renders a JSON value for a failure message, cut to one line.
func short(v any) string {
	b, _ := json.Marshal(v)
	if len(b) > 80 {
		return string(b[:77]) + "..."
	}
	return string(b)
}
