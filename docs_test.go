package wlanscale

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
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

var updateFlagsDoc = flag.Bool("update", false, "rewrite docs/FLAGS.md from the flag registrations in cmd/*")

// TestFlagsDoc keeps the CLI flag reference docs/FLAGS.md generated
// from the flag.String/Int/Duration/... registrations of every command
// under cmd/: `go test . -run TestFlagsDoc -update` (make docs-gen)
// rewrites it, and the test fails while it is stale. The registrations
// are parsed, not scraped from -help, so each default shows as its
// source expression and runtime.GOMAXPROCS(0) does not bake one
// machine's core count into the reference.
func TestFlagsDoc(t *testing.T) {
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	// The header still names scripts/flagdoc, the command this test
	// replaced, so that the move left the reference unchanged.
	var b bytes.Buffer
	b.WriteString("# CLI flag reference\n\n" +
		"<!-- Generated by scripts/flagdoc. Do not edit: run `make docs-gen` after changing a flag. -->\n\n" +
		"Defaults are shown as their source expressions, so values like\n" +
		"`runtime.GOMAXPROCS(0)` stay symbolic instead of baking in one\n" +
		"machine's core count. Flags appear in declaration order.\n")
	for _, e := range entries { // ReadDir sorts by name
		if e.IsDir() {
			writeCommandFlags(t, &b, e.Name())
		}
	}
	const path = "docs/FLAGS.md"
	if *updateFlagsDoc {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	have, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have, b.Bytes()) {
		t.Fatalf("%s is stale: flags changed without regenerating it; run `make docs-gen`", path)
	}
}

// flagTypes maps the flag constructors the reference understands to
// the type it prints. The *Var forms are not used in this repo, and a
// registration through one fails the test rather than going missing.
var flagTypes = map[string]string{
	"Bool": "bool", "Duration": "duration", "Float64": "float", "Int": "int",
	"Int64": "int", "Uint": "uint", "Uint64": "uint", "String": "string",
}

// writeCommandFlags appends command cmd/name's section: the first
// sentence of its package comment, then one table row per flag in
// declaration order, files taken in name order.
func writeCommandFlags(t *testing.T, b *bytes.Buffer, name string) {
	fset := token.NewFileSet()
	// Test files register test-binary flags (cmd/merakid's -update), not
	// flags of the command.
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(fset, filepath.Join("cmd", name), notTest, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	summary, rows := "", []string{}
	for _, pkg := range pkgs {
		files := make([]string, 0, len(pkg.Files))
		for file := range pkg.Files {
			files = append(files, file)
		}
		sort.Strings(files)
		for _, file := range files {
			f := pkg.Files[file]
			if f.Doc != nil && summary == "" {
				summary = strings.Join(strings.Fields(f.Doc.Text()), " ")
				if i := strings.Index(summary, ". "); i >= 0 {
					summary = summary[:i+1]
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if row, ok := flagRow(t, fset, call); ok {
						rows = append(rows, row)
					}
				}
				return true
			})
		}
	}
	fmt.Fprintf(b, "\n## %s\n\n", name)
	if summary != "" {
		fmt.Fprintf(b, "%s\n\n", summary)
	}
	if len(rows) == 0 {
		b.WriteString("(no flags)\n")
		return
	}
	b.WriteString("| Flag | Type | Default | Description |\n|------|------|---------|-------------|\n")
	b.WriteString(strings.Join(rows, ""))
}

// flagRow renders a flag.<Ctor>(name, default, usage) call as a table
// row, and reports false for any other call. A flag registration it
// cannot render faithfully fails the test.
func flagRow(t *testing.T, fset *token.FileSet, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
		return "", false
	}
	where := fset.Position(call.Pos())
	typ, ok := flagTypes[sel.Sel.Name]
	switch {
	case !ok && strings.HasSuffix(sel.Sel.Name, "Var"):
		t.Fatalf("%s: flag.%s is not supported by the flag reference", where, sel.Sel.Name)
	case !ok:
		return "", false
	case len(call.Args) != 3:
		t.Fatalf("%s: flag.%s with %d args", where, sel.Sel.Name, len(call.Args))
	}
	var def bytes.Buffer
	printer.Fprint(&def, fset, call.Args[1])
	cell := strings.NewReplacer("|", "\\|", "\n", " ")
	return fmt.Sprintf("| `-%s` | %s | `%s` | %s |\n", stringLit(t, where, call.Args[0]), typ,
		cell.Replace(def.String()), cell.Replace(stringLit(t, where, call.Args[2]))), true
}

// stringLit unquotes a flag name or usage, which must be a literal.
func stringLit(t *testing.T, where token.Position, e ast.Expr) string {
	if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
		if s, err := strconv.Unquote(lit.Value); err == nil {
			return s
		}
	}
	t.Fatalf("%s: a flag name or usage that is not a string literal", where)
	return ""
}
