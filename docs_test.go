package xedsim_test

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// skillNotes returns the repository's skill notes (its verify recipe).
func skillNotes(t *testing.T) []string {
	t.Helper()
	skills, err := filepath.Glob(".*/skills/*/SKILL.md")
	if err != nil {
		t.Fatal(err)
	}
	return skills
}

// documentedCommandDocs returns the files whose `go run ./cmd/<name> …`
// lines TestDocumentedCommandsParse holds to the commands' flags: the
// top-level docs and the skill notes.
func documentedCommandDocs(t *testing.T) []string {
	return append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, skillNotes(t)...)
}

var goRunCmd = regexp.MustCompile("go run \\./cmd/([a-z]+)")

// docCommand is one documented command line: where it is, the command and
// its arguments.
type docCommand struct {
	where string
	name  string
	args  []string
}

// documentedCommands returns every `go run ./cmd/<name>` command in doc,
// with backslash continuations joined. A command inside an inline code
// span ends at the span's closing backtick, which may sit on a later line.
func documentedCommands(doc string, text string) []docCommand {
	lines := strings.Split(text, "\n")
	var cmds []docCommand
	for i := 0; i < len(lines); i++ {
		where := fmt.Sprintf("%s:%d", doc, i+1)
		line := lines[i]
		for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(line, "\\") + " " + lines[i]
		}
		for _, m := range goRunCmd.FindAllStringSubmatchIndex(line, -1) {
			rest := line[m[1]:]
			if strings.Count(line[:m[0]], "`")%2 == 1 {
				for j := i + 1; !strings.Contains(rest, "`") && j < len(lines); j++ {
					rest += " " + lines[j]
				}
				rest, _, _ = strings.Cut(rest, "`")
			}
			cmds = append(cmds, docCommand{where: where, name: line[m[2]:m[3]], args: shellWords(rest)})
		}
	}
	return cmds
}

// shellWords splits a shell command's arguments as sh would, up to the end
// of the simple command: an unquoted #, |, ;, &, (, ) or redirection. A
// redirection's file-descriptor digits are not an argument.
func shellWords(s string) []string {
	var words []string
	var word strings.Builder
	inWord := false
	flush := func() {
		if inWord {
			words = append(words, word.String())
		}
		word.Reset()
		inWord = false
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\'' || c == '"':
			end := strings.IndexByte(s[i+1:], c)
			if end < 0 {
				end = len(s) - i - 1
			}
			word.WriteString(s[i+1 : i+1+end])
			inWord = true
			i += end + 1
		case c == '\\' && i+1 < len(s):
			i++
			word.WriteByte(s[i])
			inWord = true
		case c == ' ' || c == '\t':
			flush()
		case c == '#' && !inWord, strings.IndexByte("|;&()", c) >= 0:
			flush()
			return words
		case c == '>' || c == '<':
			if strings.Trim(word.String(), "0123456789") == "" {
				inWord = false
			}
			flush()
			return words
		default:
			word.WriteByte(c)
			inWord = true
		}
	}
	flush()
	return words
}

// TestDocumentedCommandsParse runs every documented `go run ./cmd/<name>`
// line's command, built once, with the line's arguments and -h. flag.Parse
// rejects a bad flag or value before it reaches -h, and -h exits 0 before
// anything runs, so exit 0 means the documented line parses.
func TestDocumentedCommandsParse(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every documented command; skipped in -short")
	}
	var cmds []docCommand
	for _, doc := range documentedCommandDocs(t) {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		cmds = append(cmds, documentedCommands(doc, string(b))...)
	}
	if len(cmds) == 0 {
		t.Fatal("no documented go run lines found")
	}
	dir := t.TempDir()
	built := map[string]bool{}
	for _, c := range cmds {
		if built[c.name] {
			continue
		}
		built[c.name] = true
		if out, err := exec.Command("go", "build", "-o", filepath.Join(dir, c.name), "./cmd/"+c.name).CombinedOutput(); err != nil {
			t.Fatalf("%s: building %s: %v\n%s", c.where, c.name, err, out)
		}
	}
	for _, c := range cmds {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		out, err := exec.CommandContext(ctx, filepath.Join(dir, c.name), append(c.args, "-h")...).CombinedOutput()
		cancel()
		if err != nil {
			t.Errorf("%s: %s %s -h: %v\n%s", c.where, c.name, strings.Join(c.args, " "), err, firstLine(out))
		}
	}
}

var (
	testFuncName = regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z][A-Za-z0-9_]*`)
	testFuncDecl = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)[A-Z][A-Za-z0-9_]*)\(`)
)

// TestDocumentedTestsExist: every Test… or Fuzz… function that README.md,
// DESIGN.md or a skill note names is declared in some _test.go file, so
// the docs cite no test that was renamed or deleted. EXPERIMENTS.md,
// ROADMAP.md and CHANGES.md are logs of past work and may name tests
// since removed.
func TestDocumentedTestsExist(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		b, err := os.ReadFile(path)
		for _, m := range testFuncDecl.FindAllSubmatch(b, -1) {
			declared[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := 0
	for _, doc := range append([]string{"README.md", "DESIGN.md"}, skillNotes(t)...) {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, name := range testFuncName.FindAllString(line, -1) {
				cited++
				if !declared[name] {
					t.Errorf("%s:%d names %s, which no _test.go declares", doc, i+1, name)
				}
			}
		}
	}
	if cited == 0 {
		t.Fatal("the docs name no tests")
	}
}

func firstLine(b []byte) string {
	line, _, _ := strings.Cut(string(b), "\n")
	return line
}

// TestShellWords pins the splitter on the shapes the docs use.
func TestShellWords(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{` -experiment all -systems 4000000   # ~a minute`, []string{"-experiment", "all", "-systems", "4000000"}},
		{` -schemes "ECC-DIMM (SECDED),XED" -seed 7 >/tmp/x.out`, []string{"-schemes", "ECC-DIMM (SECDED),XED", "-seed", "7"}},
		{` -experiment all -systems 4000000   (seed 42)`, []string{"-experiment", "all", "-systems", "4000000"}},
		{` -dimms 30000000 -edac - | head`, []string{"-dimms", "30000000", "-edac", "-"}},
		{` -x 1 2>/dev/null`, []string{"-x", "1"}},
		{` -list`, []string{"-list"}},
	} {
		if got := shellWords(tc.in); strings.Join(got, "\x00") != strings.Join(tc.want, "\x00") {
			t.Errorf("shellWords(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
