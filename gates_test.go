package mecoffload_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// gateRun is one `go test -run '<list>' <packages>` command of a gate, or
// the `-bench '<list>'` of one; decl matches the functions its list names.
type gateRun struct {
	list string
	decl *regexp.Regexp
	pkgs []string
}

var (
	runFlag   = regexp.MustCompile(`-run\s+'([^']*)'`)
	benchFlag = regexp.MustCompile(`-bench\s+'([^']*)'`)
	testFunc  = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	benchFunc = regexp.MustCompile(`(?m)^func (Benchmark\w*)\(`)
)

// gateRuns reads the named -run and -bench lists out of a Makefile or a
// workflow file, keyed by the gate (Makefile target or CI job) whose
// header, matched by header, last preceded them. -run lists holding regexp
// anchors ('^$': run no test) name no test and are skipped.
func gateRuns(t *testing.T, path string, header *regexp.Regexp) map[string][]gateRun {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ReplaceAll(string(data), "\\\n", " ")
	gates := map[string][]gateRun{}
	gate := ""
	for _, line := range strings.Split(text, "\n") {
		if m := header.FindStringSubmatch(line); m != nil {
			gate = m[1]
		}
		var pkgs []string
		for _, f := range strings.Fields(line) {
			if f == "." || strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, f)
			}
		}
		if m := runFlag.FindStringSubmatch(line); m != nil && !strings.ContainsAny(m[1], "^$") {
			gates[gate] = append(gates[gate], gateRun{list: m[1], decl: testFunc, pkgs: pkgs})
		}
		if m := benchFlag.FindStringSubmatch(line); m != nil {
			gates[gate] = append(gates[gate], gateRun{list: m[1], decl: benchFunc, pkgs: pkgs})
		}
	}
	return gates
}

// testFuncs lists the functions decl matches in a package's test files.
func testFuncs(t *testing.T, pkg string, decl *regexp.Regexp) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("package %s: no test files (%v)", pkg, err)
	}
	var names []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range decl.FindAllStringSubmatch(string(data), -1) {
			names = append(names, m[1])
		}
	}
	return names
}

// ciJobs maps each CI job of the workflow file to the text of its steps.
func ciJobs(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header := regexp.MustCompile(`^  ([a-z][a-z-]*):\s*$`)
	jobs := map[string]string{}
	job := ""
	for _, line := range strings.Split(string(data), "\n") {
		if m := header.FindStringSubmatch(line); m != nil {
			job = m[1]
		}
		if job != "" {
			jobs[job] += line + "\n"
		}
	}
	return jobs
}

// TestGateListsAgree: every gate is defined once, in the Makefile. Each
// paired CI job runs its target, no CI job names tests of its own, and
// every alternative of a target's -run list matches a Test or Fuzz
// function in the target's packages, and of its -bench list a Benchmark
// function there. A name that matches nothing would pass silently.
func TestGateListsAgree(t *testing.T) {
	makeGates := gateRuns(t, "Makefile", regexp.MustCompile(`^([a-z][a-z-]*):`))
	for job, runs := range gateRuns(t, ".github/workflows/ci.yml", regexp.MustCompile(`^  ([a-z][a-z-]*):\s*$`)) {
		t.Errorf("CI job %s runs %v itself; name them in its Makefile target", job, runs)
	}
	ciJob := map[string]string{ // Makefile target -> the CI job that runs it
		"verify":             "test",
		"lint":               "lint",
		"race":               "race",
		"cluster-parity":     "cluster-parity",
		"incremental-parity": "incremental-parity",
		"drift":              "drift-parity",
		"fidelity":           "fidelity",
		"oracle":             "oracle",
		"bench-smoke":        "bench-smoke",
		"tick-jitter":        "tick-jitter",
		"fuzz":               "fuzz-smoke",
	}
	jobs := ciJobs(t, ".github/workflows/ci.yml")
	for target, job := range ciJob {
		if !regexp.MustCompile(`\bmake ` + regexp.QuoteMeta(target) + `\s`).MatchString(jobs[job]) {
			t.Errorf("CI job %s does not run make %s", job, target)
		}
	}
	for target := range makeGates {
		if _, ok := ciJob[target]; !ok {
			t.Errorf("Makefile target %s runs named tests but no CI job is paired with it here", target)
		}
	}

	type pkgDecl struct {
		pkg  string
		decl *regexp.Regexp
	}
	funcs := map[pkgDecl][]string{}
	for gate, runs := range makeGates {
		for _, run := range runs {
			var names []string
			for _, pkg := range run.pkgs {
				k := pkgDecl{pkg, run.decl}
				if funcs[k] == nil {
					funcs[k] = testFuncs(t, pkg, run.decl)
				}
				names = append(names, funcs[k]...)
			}
			for _, alt := range strings.Split(run.list, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("Makefile gate %s: %q: %v", gate, alt, err)
					continue
				}
				if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("Makefile gate %s: %q matches no function declared in %v", gate, alt, run.pkgs)
				}
			}
		}
	}
}

var (
	declaredFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	citedFunc    = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
)

// TestDocsCiteExistingTests: every Test, Fuzz or Benchmark name cited in
// README.md, DESIGN.md, EXPERIMENTS.md or the verify skill is declared in
// some _test.go file of the module, or is the prefix of one (a -run list
// such as TestIncCache). A deleted test's name left in a document sends
// its reader to a check that no longer runs. ROADMAP.md and CHANGES.md
// record history and may name deleted tests; bench/README.md belongs to
// the benchmark.
func TestDocsCiteExistingTests(t *testing.T) {
	var declared []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range declaredFunc.FindAllStringSubmatch(string(data), -1) {
			declared = append(declared, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, name := range citedFunc.FindAllString(string(data), -1) {
			if seen[name] {
				continue
			}
			seen[name] = true
			if !slices.ContainsFunc(declared, func(d string) bool { return strings.HasPrefix(d, name) }) {
				t.Errorf("%s cites %s, which no _test.go file declares", doc, name)
			}
		}
	}
}
