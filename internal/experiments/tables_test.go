package experiments

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.sha256 from the tables as rendered now")

const tablesDigests = "testdata/tables.sha256"

// TestTablesPinned regenerates every paper table and ablation (each id
// in Order and Ablations, at quickCfg) and compares its SHA-256 against testdata/tables.sha256, so
// a change that moves any number the paper's figures report fails
// tier-1 instead of passing unnoticed. A change that means to move them
// rewrites the file with
//
//	go test ./internal/experiments -run TestTablesPinned -update
//
// and says why in the same commit. The digests are of the amd64 build:
// Go may fuse multiply-adds on other architectures, which can move a
// last digit.
func TestTablesPinned(t *testing.T) {
	var file strings.Builder
	sums := map[string]string{}
	ids := append(append([]string(nil), Order...), Ablations...)
	for _, id := range ids {
		tab, err := Run(id, quickCfg())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		sums[id] = fmt.Sprintf("%x", sha256.Sum256([]byte(tab.String())))
		fmt.Fprintf(&file, "%s  %s\n", sums[id], id)
	}
	if *update {
		if err := os.WriteFile(tablesDigests, []byte(file.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(tablesDigests)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	want := digestsByID(string(raw))
	for _, id := range ids {
		if w, ok := want[id]; !ok {
			t.Errorf("%s: no pinned digest in %s", id, tablesDigests)
		} else if w != sums[id] {
			t.Errorf("%s: table changed (sha256 %s, pinned %s)", id, sums[id], w)
		}
		delete(want, id)
	}
	for id := range want {
		t.Errorf("%s: pinned in %s but no longer in Order or Ablations", id, tablesDigests)
	}
}

// digestsByID parses sha256sum-style "digest  id" lines.
func digestsByID(s string) map[string]string {
	out := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		if sum, id, ok := strings.Cut(sc.Text(), "  "); ok {
			out[id] = sum
		}
	}
	return out
}
