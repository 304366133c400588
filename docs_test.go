package wlanscale

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteLiveTests keeps the prose gates honest: every Test*,
// Fuzz* or Benchmark* name the operator and design docs cite as proof
// of a claim must exist as a func in some Go file of the tree, so a
// renamed or folded test cannot leave a doc pointing at nothing.
func TestDocsCiteLiveTests(t *testing.T) {
	funcs := make(map[string]bool)
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	cite := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`)
	notes, _ := filepath.Glob(".*/skills/*/SKILL.md") // checked-in build notes; the pattern is valid
	for _, doc := range append([]string{"README.md", "DESIGN.md", "OPERATIONS.md", "EXPERIMENTS.md"}, notes...) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cite.FindAllString(string(text), -1) {
			if !funcs[name] {
				t.Errorf("%s cites %s, which no Go file declares", doc, name)
			}
		}
	}
}
