// Command reach fails unless every function declared in a non-test file
// under internal/ is linked into a program the repository ships, or sits on
// the allowlist below with its reason.
//
// The roots are every main under cmd/ and examples/, the benchmark/ module,
// and a generated program that references each exported function of the
// root package and each exported method of every type it declares or
// aliases. Each is built with -gcflags=all=-l, so no function is inlined
// away, and `go tool nm` lists its text symbols. An allowlisted function
// that is linked fails too: its entry has served its purpose.
//
// Run it from the module root: go run ./tools/reach
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"strings"
)

// mod is the module path; the packages checked are those below mod/internal.
const mod = "xedsim"

// allowlist names the functions that may stay unlinked. A key is a package
// path below internal/, optionally followed by ".Func" or ".Type.Method";
// it covers every function at or below it.
var allowlist = []struct {
	reason string
	keys   []string
}{
	{"test-support package: only tests import it",
		[]string{"dist/chaos", "clitest"}},
	{"ROADMAP 4(c): checks the SECDED contract of the codes BEER recovers",
		[]string{"infer.RecoverCode"}},
	{"ROADMAP 5: the functional model judges the campaign's own trials",
		[]string{"faultsim.ApplyToChip", "ecc.NewDoubleChipkill",
			"core.ECCDIMMController", "core.NewECCDIMMController",
			"core.DoubleChipkillController", "core.NewDoubleChipkillController",
			"core.scatterBeat"}},
	{"ROADMAP 7(b): xedfaultsim -explain re-plans a trial through its replay",
		[]string{"faultsim.TrialError.Replay", "simrand.Restore", "simrand.Source.SetState"}},
	{"test seam: core's invariant test licenses a wrong non-DUE read by its SilentCorrupt count",
		[]string{"dram.Chip.SilentCorrupt"}},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}

func run() error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	decls, err := declared(filepath.Join(root, "internal"))
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "reach")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	src, err := rootProgram(root, decls)
	if err != nil {
		return err
	}
	// The root-API program's package exists only in the build overlay, so
	// the tree gains no file.
	gen, overlay, bin := filepath.Join(tmp, "rootapi.go"), filepath.Join(tmp, "overlay.json"), filepath.Join(tmp, "bin")+string(filepath.Separator)
	for name, body := range map[string]string{
		gen:     src,
		overlay: fmt.Sprintf(`{"Replace":{%q:%q}}`, filepath.Join(root, "tools", "reach", "rootapi", "main.go"), gen),
	} {
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			return err
		}
	}
	for _, b := range [][]string{
		{root, bin, "-overlay=" + overlay, "./cmd/...", "./examples/...", "./tools/reach/rootapi"},
		{filepath.Join(root, "benchmark"), bin + "benchmark", "."},
	} {
		if _, err := command(b[0], "go", append([]string{"build", "-gcflags=all=-l", "-o", b[1]}, b[2:]...)...); err != nil {
			return err
		}
	}
	bins, err := os.ReadDir(bin)
	if err != nil {
		return err
	}
	linked := map[string]bool{}
	for _, b := range bins {
		out, err := command(root, "go", "tool", "nm", filepath.Join(bin, b.Name()))
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(out), "\n") {
			if key, ok := symbolKey(line, mod+"/internal/"); ok {
				linked[key] = true
			}
		}
	}
	problems := check(decls, linked)
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problem(s); the allowlist is in tools/reach/main.go", len(problems))
	}
	fmt.Printf("reach: all %d internal functions linked or allowlisted (%d binaries)\n", len(decls), len(bins))
	return nil
}

// decl is one function declaration: its key, as symbolKey keys linked
// symbols, and its file and line.
type decl struct{ key, pos string }

// declared lists every function in the non-test Go files below dir.
func declared(dir string) ([]decl, error) {
	var out []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg, _ := filepath.Rel(dir, filepath.Dir(p))
		file, _ := filepath.Rel(filepath.Dir(dir), p)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				key := strings.TrimPrefix(receiver(fd)+"."+fd.Name.Name, ".")
				pos := fmt.Sprintf("%s:%d", filepath.ToSlash(file), fset.Position(fd.Pos()).Line)
				out = append(out, decl{filepath.ToSlash(pkg) + "." + key, pos})
			}
		}
		return nil
	})
	return out, err
}

// receiver names a method's receiver type without pointer or type
// parameters, or returns "" for a plain function.
func receiver(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return ""
	}
	name, _, _ := strings.Cut(strings.TrimPrefix(types.ExprString(fd.Recv.List[0].Type), "*"), "[")
	return name
}

// rootProgram returns a main that references each exported function of the
// root package and each exported method of every type the root package
// declares, or aliases from internal/.
func rootProgram(root string, decls []decl) (string, error) {
	files, err := filepath.Glob(filepath.Join(root, "*.go"))
	if err != nil {
		return "", err
	}
	var refs []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			return "", err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if recv := receiver(n); recv == "" && n.Name.IsExported() {
					refs = append(refs, "root."+n.Name.Name)
				} else if ast.IsExported(recv) && n.Name.IsExported() {
					refs = append(refs, fmt.Sprintf("(*root.%s).%s", recv, n.Name.Name))
				}
			case *ast.TypeSpec:
				sel, ok := n.Type.(*ast.SelectorExpr)
				if n.Assign == 0 || !ok || !n.Name.IsExported() {
					break
				}
				for _, d := range decls {
					pkg, rest, _ := strings.Cut(d.key, ".")
					m, ok := strings.CutPrefix(rest, sel.Sel.Name+".")
					if ok && path.Base(pkg) == sel.X.(*ast.Ident).Name && ast.IsExported(m) {
						refs = append(refs, fmt.Sprintf("(*root.%s).%s", n.Name.Name, m))
					}
				}
			}
			return true
		})
	}
	return fmt.Sprintf("package main\n\nimport root %q\n\nvar roots = []any{\n\t%s,\n}\n\nfunc main() { println(len(roots)) }\n",
		mod, strings.Join(refs, ",\n\t")), nil
}

var wrapperPart = regexp.MustCompile(`^((func|gowrap|deferwrap)\d+|\d+)$`)

// symbolKey turns one `go tool nm` line into the key of the declared
// function it belongs to: the package path below prefix, then the function
// or Type.Method. Closures and wrappers (.func1, .gowrap1, .deferwrap1,
// -fm) count for their enclosing function, and generic instantiations for
// their generic declaration. Only text symbols under prefix count.
func symbolKey(line, prefix string) (string, bool) {
	f := strings.SplitN(strings.TrimSpace(line), " ", 3)
	if len(f) < 3 || (f[1] != "T" && f[1] != "t") || !strings.HasPrefix(f[2], prefix) {
		return "", false
	}
	// Package paths below internal/ hold no dot, so the first one ends it.
	pkg, name, _ := strings.Cut(strings.TrimSuffix(stripBrackets(f[2][len(prefix):]), "-fm"), ".")
	parts := strings.Split(strings.NewReplacer("(*", "", ")", "").Replace(name), ".")
	n := 0
	for n < len(parts) && !wrapperPart.MatchString(parts[n]) {
		n++
	}
	return pkg + "." + strings.Join(parts[:n], "."), true
}

// stripBrackets removes every bracketed type-argument list, skipping the
// quoted struct tags inside one, which may hold brackets of their own.
func stripBrackets(s string) string {
	var b strings.Builder
	depth, quoted := 0, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case quoted && c == '\\':
			i++
		case c == '"' && depth > 0:
			quoted = !quoted
		case quoted:
		case c == '[':
			depth++
		case c == ']':
			depth--
		case depth == 0:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// covering returns the reason of the allowlist entry covering key, or "".
func covering(key string) string {
	for _, a := range allowlist {
		for _, k := range a.keys {
			if key == k || strings.HasPrefix(key, k+".") {
				return a.reason
			}
		}
	}
	return ""
}

// check returns one line per declared function that is neither linked nor
// allowlisted, and per allowlisted function that is linked.
func check(decls []decl, linked map[string]bool) []string {
	var out []string
	for _, d := range decls {
		switch reason := covering(d.key); {
		case reason == "" && !linked[d.key]:
			out = append(out, fmt.Sprintf("%s: %s is not linked by any command, example, the benchmark or the root API", d.pos, d.key))
		case reason != "" && linked[d.key]:
			out = append(out, fmt.Sprintf("%s: %s is linked; delete its allowlist entry (%s)", d.pos, d.key, reason))
		}
	}
	return out
}

// command runs name in dir and returns its standard output; its standard
// error goes to ours.
func command(dir, name string, args ...string) ([]byte, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return out, nil
}
