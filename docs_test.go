package idgka_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles is the documentation tree the link checker walks: the front
// door plus everything under docs/ and the roadmap.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md", "ROADMAP.md"}
	under, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	return append(files, under...)
}

var (
	mdLink    = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	mdHeading = regexp.MustCompile(`(?m)^#{1,6} +(.+?) *$`)
	// anchorDrop strips the characters GitHub removes when it slugs a
	// heading into an anchor id.
	anchorDrop = regexp.MustCompile(`[^a-z0-9 _-]`)
	codeFence  = regexp.MustCompile("(?s)```.*?```|`[^`\n]*`")
	// mdRef matches a markdown file named in prose, with an optional
	// anchor: README.md, docs/ARCHITECTURE.md#deviations.
	mdRef = regexp.MustCompile(`[A-Za-z0-9_./-]+\.md(?:#[a-z0-9_-]+)?`)
)

// anchorsOf returns the GitHub-style anchor ids of a markdown document's
// headings (lowercase, punctuation stripped, spaces hyphenated).
func anchorsOf(raw string) map[string]bool {
	anchors := map[string]bool{}
	for _, m := range mdHeading.FindAllStringSubmatch(raw, -1) {
		h := strings.ReplaceAll(m[1], "`", "")
		h = strings.ToLower(h)
		h = anchorDrop.ReplaceAllString(h, "")
		anchors[strings.ReplaceAll(h, " ", "-")] = true
	}
	return anchors
}

// TestDocLinksResolve is the docs link checker: every relative markdown
// link in the documentation tree must point at an existing file, and a
// `#fragment` into a markdown file must name one of its headings. CI
// runs it in the docs job, so a renamed file or retitled section fails
// the build instead of leaving a dead link.
func TestDocLinksResolve(t *testing.T) {
	for _, file := range docFiles(t) {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		// Links inside code spans/fences are examples, not navigation.
		text := codeFence.ReplaceAllString(string(raw), "")
		for _, m := range mdLink.FindAllStringSubmatch(text, -1) {
			link := m[1]
			if strings.Contains(link, "://") || strings.HasPrefix(link, "mailto:") {
				continue // external; not checked offline
			}
			path, frag, _ := strings.Cut(link, "#")
			target := file
			if path != "" {
				target = filepath.Join(filepath.Dir(file), path)
				if _, err := os.Stat(target); err != nil {
					t.Errorf("%s: link %q: target does not exist", file, link)
					continue
				}
			}
			if frag == "" || !strings.HasSuffix(target, ".md") {
				continue
			}
			dest, err := os.ReadFile(target)
			if err != nil {
				t.Fatal(err)
			}
			if !anchorsOf(string(dest))[frag] {
				t.Errorf("%s: link %q: no heading in %s produces anchor #%s", file, link, target, frag)
			}
		}
	}
}

// TestGoCommentDocRefsResolve extends the link checker to Go comments:
// every markdown file a comment names must exist, relative to the
// repository root or to the commenting file's directory, and a
// `#fragment` must name one of its headings.
func TestGoCommentDocRefsResolve(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, ref := range mdRef.FindAllString(cg.Text(), -1) {
				doc, frag, _ := strings.Cut(ref, "#")
				var raw []byte
				for _, target := range []string{doc, filepath.Join(filepath.Dir(path), doc)} {
					if raw, err = os.ReadFile(target); err == nil {
						break
					}
				}
				if raw == nil {
					t.Errorf("%s: comment names %q, which does not exist", fset.Position(cg.Pos()), ref)
					continue
				}
				if frag != "" && !anchorsOf(string(raw))[frag] {
					t.Errorf("%s: comment names %q, but %s has no heading with that anchor", fset.Position(cg.Pos()), ref, doc)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
