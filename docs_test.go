package wlanscale

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"wlanscale/internal/core"
)

// TestDocsCiteLiveTests keeps the prose gates honest: every Test*,
// Fuzz*, Benchmark* or Example* name the operator and design docs cite
// as proof of a claim must exist as a func in some Go file of the tree,
// and every `go run|test|build ./<path>` they show must name a
// directory that exists, so a renamed test or a deleted package cannot
// leave a doc pointing at nothing.
func TestDocsCiteLiveTests(t *testing.T) {
	funcs := make(map[string]bool)
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
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
	cite := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z]\w*`)
	// A go command's arguments run to the end of the line or to the
	// first shell operator, comment or closing backtick.
	gocmd := regexp.MustCompile("\\bgo (run|test|build)\\b([^\n`&|;#>]*)")
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
		for _, m := range gocmd.FindAllStringSubmatch(string(text), -1) {
			for _, arg := range strings.Fields(m[2]) {
				if !strings.HasPrefix(arg, "./") || arg == "./..." {
					continue
				}
				dir := strings.TrimSuffix(arg, "/...")
				if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
					t.Errorf("%s shows `go %s %s`, but %s is not a directory", doc, m[1], arg, dir)
				}
				if m[1] == "run" {
					break // the rest are the program's own arguments
				}
			}
		}
	}
}

// TestEveryPackageHasOneDocComment is the repo's documentation floor:
// every Go package in the module — internal, cmd, scripts and the root
// alike — must carry a package comment, and must carry it exactly once
// (two files both holding doc comments get silently concatenated by go
// doc, which always reads as an accident). By convention the comment
// lives in doc.go for multi-file library packages and atop main.go for
// commands.
func TestEveryPackageHasOneDocComment(t *testing.T) {
	// The walk never descends into VCS metadata, test fixtures, or
	// trees that hold no module code.
	skipDirs := map[string]bool{".git": true, ".github": true, "testdata": true, "docs": true}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if skipDirs[d.Name()] {
			return filepath.SkipDir
		}
		// Directories without Go files parse to zero packages and pass
		// vacuously.
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Errorf("%s: %v", dir, err)
		}
		for name, pkg := range pkgs {
			if strings.HasSuffix(name, "_test") {
				continue
			}
			var documented []string
			for file, f := range pkg.Files {
				if f.Doc != nil {
					documented = append(documented, filepath.Base(file))
				}
			}
			switch {
			case len(documented) == 0:
				t.Errorf("%s: package %s has no package comment", dir, name)
			case len(documented) > 1:
				sort.Strings(documented)
				t.Errorf("%s: package %s has package comments in %d files (%s)",
					dir, name, len(documented), strings.Join(documented, ", "))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDesignIndexesEveryExperiment keeps DESIGN.md §3's per-experiment
// index in step with core.Experiments: every entry has exactly one row,
// named in the row's last column, and no row names anything else.
func TestDesignIndexesEveryExperiment(t *testing.T) {
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| (?:Table|Fig\\.) \\d+ \\|.*\\| `(\\w+)` \\|$")
	rows := make(map[string]int)
	for _, m := range row.FindAllStringSubmatch(string(text), -1) {
		rows[m[1]]++
	}
	for _, e := range core.Experiments {
		if rows[e.Name] != 1 {
			t.Errorf("DESIGN.md §3 has %d rows for experiment %s, want 1", rows[e.Name], e.Name)
		}
		delete(rows, e.Name)
	}
	for name := range rows {
		t.Errorf("DESIGN.md §3 indexes %s, which core.Experiments does not list", name)
	}
}
