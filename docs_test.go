package s3crm

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMarkdownLinks validates every markdown link in the user-facing docs:
// relative targets must exist in the repository, intra-document fragments
// must match a heading, and absolute URLs must at least be https. CI runs
// this as the docs link check, so a renamed file or heading fails the build
// instead of silently breaking README navigation.
func TestMarkdownLinks(t *testing.T) {
	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", "CHANGES.md"}
	linkRE := regexp.MustCompile(`\]\(([^)\s]+)\)`)
	for _, doc := range docs {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		headings := headingAnchors(string(body))
		for _, m := range linkRE.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"):
				t.Errorf("%s: insecure link %q", doc, target)
			case strings.HasPrefix(target, "https://"), strings.HasPrefix(target, "mailto:"):
				// External: reachability is not checkable offline.
			case strings.HasPrefix(target, "#"):
				if !headings[strings.TrimPrefix(target, "#")] {
					t.Errorf("%s: fragment %q matches no heading", doc, target)
				}
			default:
				path := target
				if i := strings.IndexByte(path, '#'); i >= 0 {
					path = path[:i]
				}
				if _, err := os.Stat(filepath.Clean(path)); err != nil {
					t.Errorf("%s: broken relative link %q", doc, target)
				}
			}
		}
	}
}

// headingAnchors derives GitHub-style anchor slugs for every heading.
func headingAnchors(body string) map[string]bool {
	anchors := map[string]bool{}
	nonSlug := regexp.MustCompile(`[^a-z0-9 -]`)
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		h := strings.TrimSpace(strings.TrimLeft(line, "#"))
		h = strings.ToLower(h)
		h = nonSlug.ReplaceAllString(h, "")
		h = strings.ReplaceAll(h, " ", "-")
		anchors[h] = true
	}
	return anchors
}

// TestDocsMentionCurrentSurface keeps the README honest about the pieces
// this repository actually ships: the quickstart API, the CLIs, every
// engine and the committed bench artifacts must all be referenced, and the
// retired oracle knobs must not be.
func TestDocsMentionCurrentSurface(t *testing.T) {
	body, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"NewCampaign", "EvaluateBatch", "cmd/s3crm", "s3crmd", "gengraph",
		"LoadGraphProblem", "BENCH_6.json", "worldcache", "liveedge",
		"WithModel", "-model lt", "bitparallel",
		"DESIGN.md", "EXPERIMENTS.md",
		"cmd/loadgen", "/statusz", "BENCH_7.json", "Retry-After",
		"`ssr`", "WithEpsilon", "WithDelta", "BENCH_8.json", "internal/sketch",
		"ApplyEdges", "Resolve", "/graph/append", "-churn", "BENCH_9.json",
		"bench.json",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("README.md no longer mentions %q", want)
		}
	}
	for _, engine := range Engines() {
		if !strings.Contains(string(body), "| `"+engine+"` |") {
			t.Errorf("README.md engine table has no row for %q", engine)
		}
	}
	// The oracle knobs, the substrate and kernel selectors, the live-edge
	// budget option, the one-shot API and the write-only binary graph codec
	// are gone; the README must not advertise them.
	for _, retired := range []string{
		"WithDiffusion", "WithEvalMode", "WithExhaustiveID", "ExhaustiveID", "-evalmode",
		"\"eval_mode\"", "| `sketch` |", "s3crm.Options", "s3crm.Solve(",
		"-binary", "binary codec", "DiffusionHash", "EvalScalar", "EvalMode",
		"WithLiveEdgeMemBudget",
	} {
		if strings.Contains(string(body), retired) {
			t.Errorf("README.md still documents the retired %q", retired)
		}
	}
	for _, artifact := range []string{"BENCH_4.json", "BENCH_5.json", "BENCH_6.json", "BENCH_7.json", "BENCH_8.json", "BENCH_9.json"} {
		if _, err := os.Stat(artifact); err != nil {
			t.Errorf("%s is not committed at the repo root", artifact)
		}
	}
}
