package experiments

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// experimentsDoc is the document that publishes the experiments'
// results, relative to this package.
const experimentsDoc = "../../EXPERIMENTS.md"

// TestExperimentsDoc runs every experiment of the list once at
// FullScale with the 8-CPU sweep, as `vgbench` does by default, and
// requires each table EXPERIMENTS.md publishes between
// <!-- vgbench:NAME --> and <!-- /vgbench:NAME --> to equal the run's
// output, so a stale published number fails a test that names its
// block. After an intentional cost-model change, regenerate with:
//
//	go test ./internal/experiments -run 'TestExperimentsDoc|TestTCBSize' -update
func TestExperimentsDoc(t *testing.T) {
	blocks := make(map[string]string, len(Experiments))
	for _, e := range Experiments {
		blocks["vgbench:"+e.Name] = e.Run(FullScale(), 8).Table
	}
	doc := checkDocBlocks(t, blocks)
	for _, m := range regexp.MustCompile(`(?m)^<!-- (vgbench:\S+) -->$`).FindAllStringSubmatch(doc, -1) {
		if _, ok := blocks[m[1]]; !ok {
			t.Errorf("%s: EXPERIMENTS.md block names no experiment of the list", m[1])
		}
	}
}

// checkDocBlocks requires EXPERIMENTS.md to hold each named block
// between <!-- NAME --> and <!-- /NAME --> lines with exactly the given
// text, and names each block that differs. Under -update it rewrites
// the blocks instead. It returns the document as read.
func checkDocBlocks(t *testing.T, blocks map[string]string) string {
	t.Helper()
	data, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	names := make([]string, 0, len(blocks))
	for name := range blocks {
		names = append(names, name)
	}
	sort.Strings(names)
	updated := doc
	for _, name := range names {
		open, end := "<!-- "+name+" -->\n", "<!-- /"+name+" -->"
		i := strings.Index(updated, open)
		j := strings.Index(updated, end)
		if i < 0 || j < i {
			t.Errorf("%s: EXPERIMENTS.md has no <!-- %s --> ... <!-- /%s --> block", name, name, name)
			continue
		}
		i += len(open)
		if got, want := updated[i:j], blocks[name]; got != want {
			if !*updateGolden {
				t.Errorf("%s: EXPERIMENTS.md block differs from this run (run with -update after review); first difference:\n%s",
					name, firstDiff(got, want))
			}
			updated = updated[:i] + want + updated[j:]
		}
	}
	if *updateGolden && updated != doc {
		if err := os.WriteFile(experimentsDoc, []byte(updated), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", experimentsDoc)
	}
	return doc
}

// firstDiff renders the first line where the published text and the
// run's text differ.
func firstDiff(published, run string) string {
	p, r := strings.Split(published, "\n"), strings.Split(run, "\n")
	for k := 0; k < len(p) || k < len(r); k++ {
		var pl, rl string
		if k < len(p) {
			pl = p[k]
		}
		if k < len(r) {
			rl = r[k]
		}
		if pl != rl {
			return "  published: " + pl + "\n  this run:  " + rl
		}
	}
	return "  (none)"
}
