package gllm_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestTable1RowMatchesLog keeps EXPERIMENTS.md's Table 1 row on the
// committed paper run: the tree and core line counts it quotes must be the
// two that results/full_run.log prints (TestPaperRunMatchesResults keeps
// the log on the code).
func TestTable1RowMatchesLog(t *testing.T) {
	// counts returns the two numbers re captures in path, digit groups
	// joined ("18 601" reads 18601).
	counts := func(path string, re *regexp.Regexp) (string, string) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m := re.FindSubmatch(data)
		if m == nil {
			t.Fatalf("%s: no match for %s", path, re)
		}
		return strings.ReplaceAll(string(m[1]), " ", ""), strings.ReplaceAll(string(m[2]), " ", "")
	}
	logTree, logCore := counts("results/full_run.log",
		regexp.MustCompile(`this reproduction: (\d+), core (\d+)`))
	docCore, docTree := counts("EXPERIMENTS.md",
		regexp.MustCompile(`\| gLLM \|.*: (\d[\d ]*) of the tree's (\d[\d ]*) non-blank`))
	if docTree != logTree || docCore != logCore {
		t.Fatalf("EXPERIMENTS.md Table 1 quotes %s core of %s tree lines; results/full_run.log reads %s of %s",
			docCore, docTree, logCore, logTree)
	}
}
