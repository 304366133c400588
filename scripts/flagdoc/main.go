// Command flagdoc generates the CLI flag reference (docs/FLAGS.md) by
// statically parsing the flag.String/Int/Duration/... registrations in
// every command under cmd/. It deliberately does NOT run the binaries
// and scrape -help: defaults like runtime.GOMAXPROCS(0) would then
// embed the build machine's core count and the reference would churn
// between hosts. Instead each default is rendered as its source
// expression, which is stable everywhere.
//
// Modes: -out writes the file (what `make docs-gen` runs after a flag
// change); -check re-renders and diffs against the file on disk,
// exiting non-zero on drift (what `make docs` and CI run). With
// neither, the markdown goes to stdout.
package main

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
	"sort"
	"strconv"
	"strings"
)

// flagFuncs maps the flag-package constructors flagdoc understands to
// the type name the reference prints. *Var forms are not used in this
// repo; the parser flags any it cannot follow rather than dropping
// them silently.
var flagFuncs = map[string]string{
	"Bool":     "bool",
	"Duration": "duration",
	"Float64":  "float",
	"Int":      "int",
	"Int64":    "int",
	"Uint":     "uint",
	"Uint64":   "uint",
	"String":   "string",
}

type flagDef struct {
	Name    string
	Type    string
	Default string
	Usage   string
	pos     token.Pos
}

type command struct {
	Name    string // "merakid"
	Summary string // first sentence of the package comment
	Flags   []flagDef
}

func main() {
	out := flag.String("out", "", "write the rendered reference to this path")
	check := flag.String("check", "", "compare the rendered reference against this path; exit 1 on drift")
	flag.Parse()

	cmds, err := scanCommands("cmd")
	if err != nil {
		fmt.Fprintf(os.Stderr, "flagdoc: %v\n", err)
		os.Exit(2)
	}
	doc := render(cmds)

	switch {
	case *check != "":
		want, err := os.ReadFile(*check)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flagdoc: %v (run `make docs-gen` to create it)\n", err)
			os.Exit(1)
		}
		if !bytes.Equal(want, doc) {
			fmt.Fprintf(os.Stderr, "flagdoc: %s is stale — flags changed without regenerating; run `make docs-gen`\n", *check)
			os.Exit(1)
		}
		fmt.Printf("flagdoc: %s is up to date\n", *check)
	case *out != "":
		if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "flagdoc: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*out, doc, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "flagdoc: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("flagdoc: wrote %s (%d commands)\n", *out, len(cmds))
	default:
		os.Stdout.Write(doc)
	}
}

// scanCommands parses every directory under root as one command.
func scanCommands(root string) ([]command, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var cmds []command
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		c, err := scanCommand(filepath.Join(root, e.Name()))
		if err != nil {
			return nil, err
		}
		cmds = append(cmds, c)
	}
	sort.Slice(cmds, func(i, j int) bool { return cmds[i].Name < cmds[j].Name })
	return cmds, nil
}

func scanCommand(dir string) (command, error) {
	c := command{Name: filepath.Base(dir)}
	fset := token.NewFileSet()
	// Test files register test-binary flags (cmd/merakid's -update), not
	// flags of the command.
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(fset, dir, notTest, parser.ParseComments)
	if err != nil {
		return c, err
	}
	for _, pkg := range pkgs {
		// Filenames in deterministic order so positions sort stably.
		var files []string
		for file := range pkg.Files {
			files = append(files, file)
		}
		sort.Strings(files)
		for _, file := range files {
			f := pkg.Files[file]
			if f.Doc != nil && c.Summary == "" {
				c.Summary = firstSentence(f.Doc.Text())
			}
			var inspectErr error
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				def, ok, err := parseFlagCall(fset, call)
				if err != nil && inspectErr == nil {
					inspectErr = fmt.Errorf("%s: %v", fset.Position(call.Pos()), err)
				}
				if ok {
					c.Flags = append(c.Flags, def)
				}
				return true
			})
			if inspectErr != nil {
				return c, inspectErr
			}
		}
	}
	// Declaration order within a file, files in name order.
	sort.SliceStable(c.Flags, func(i, j int) bool { return c.Flags[i].pos < c.Flags[j].pos })
	return c, nil
}

// parseFlagCall recognizes flag.<Ctor>(name, default, usage). The
// second return is false for any other call; an error means the call
// is a flag registration flagdoc cannot render faithfully.
func parseFlagCall(fset *token.FileSet, call *ast.CallExpr) (flagDef, bool, error) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return flagDef{}, false, nil
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != "flag" {
		return flagDef{}, false, nil
	}
	typ, ok := flagFuncs[sel.Sel.Name]
	if !ok {
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			return flagDef{}, false, fmt.Errorf("flag.%s is not supported by flagdoc", sel.Sel.Name)
		}
		return flagDef{}, false, nil
	}
	if len(call.Args) != 3 {
		return flagDef{}, false, fmt.Errorf("flag.%s with %d args", sel.Sel.Name, len(call.Args))
	}
	name, err := stringLit(call.Args[0])
	if err != nil {
		return flagDef{}, false, fmt.Errorf("flag name: %w", err)
	}
	usage, err := stringLit(call.Args[2])
	if err != nil {
		return flagDef{}, false, fmt.Errorf("flag -%s usage: %w", name, err)
	}
	return flagDef{
		Name:    name,
		Type:    typ,
		Default: exprText(fset, call.Args[1]),
		Usage:   usage,
		pos:     call.Pos(),
	}, true, nil
}

// stringLit unquotes a string literal argument.
func stringLit(e ast.Expr) (string, error) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", fmt.Errorf("not a string literal")
	}
	return strconv.Unquote(lit.Value)
}

// exprText renders an expression as the source text the reference
// shows for its default value.
func exprText(fset *token.FileSet, e ast.Expr) string {
	var b bytes.Buffer
	printer.Fprint(&b, fset, e)
	return b.String()
}

func firstSentence(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	if i := strings.Index(s, ". "); i >= 0 {
		return s[:i+1]
	}
	return s
}

// render produces the markdown reference.
func render(cmds []command) []byte {
	var b bytes.Buffer
	b.WriteString("# CLI flag reference\n\n")
	b.WriteString("<!-- Generated by scripts/flagdoc. Do not edit: run `make docs-gen` after changing a flag. -->\n\n")
	b.WriteString("Defaults are shown as their source expressions, so values like\n")
	b.WriteString("`runtime.GOMAXPROCS(0)` stay symbolic instead of baking in one\n")
	b.WriteString("machine's core count. Flags appear in declaration order.\n")
	for _, c := range cmds {
		fmt.Fprintf(&b, "\n## %s\n\n", c.Name)
		if c.Summary != "" {
			fmt.Fprintf(&b, "%s\n\n", c.Summary)
		}
		if len(c.Flags) == 0 {
			b.WriteString("(no flags)\n")
			continue
		}
		b.WriteString("| Flag | Type | Default | Description |\n")
		b.WriteString("|------|------|---------|-------------|\n")
		for _, f := range c.Flags {
			fmt.Fprintf(&b, "| `-%s` | %s | `%s` | %s |\n",
				f.Name, f.Type, escapeCell(f.Default), escapeCell(f.Usage))
		}
	}
	return b.Bytes()
}

// escapeCell keeps table cells intact: pipes would split the column
// and newlines would end the row.
func escapeCell(s string) string {
	s = strings.ReplaceAll(s, "|", "\\|")
	return strings.ReplaceAll(s, "\n", " ")
}
