package mecoffload_test

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// gateRun is one `go test -run '<list>' <packages>` command of a gate.
type gateRun struct {
	list string
	pkgs []string
}

var runFlag = regexp.MustCompile(`-run\s+'([^']*)'`)

// gateRuns reads the named -run lists out of a Makefile or a workflow file,
// keyed by the gate (Makefile target or CI job) whose header, matched by
// header, last preceded them. Lists holding regexp anchors ('^$': run no
// test) name no test and are skipped.
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
		m := runFlag.FindStringSubmatch(line)
		if m == nil || strings.ContainsAny(m[1], "^$") {
			continue
		}
		run := gateRun{list: m[1]}
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, "./") {
				run.pkgs = append(run.pkgs, f)
			}
		}
		gates[gate] = append(gates[gate], run)
	}
	return gates
}

var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)

// testFuncs lists the Test and Fuzz functions declared in a package's test
// files.
func testFuncs(t *testing.T, pkg string) []string {
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
		for _, m := range testFunc.FindAllStringSubmatch(string(data), -1) {
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
// function in the target's packages. A name that matches nothing would
// pass silently.
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

	funcs := map[string][]string{}
	for gate, runs := range makeGates {
		for _, run := range runs {
			var names []string
			for _, pkg := range run.pkgs {
				if funcs[pkg] == nil {
					funcs[pkg] = testFuncs(t, pkg)
				}
				names = append(names, funcs[pkg]...)
			}
			for _, alt := range strings.Split(run.list, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("Makefile gate %s: %q: %v", gate, alt, err)
					continue
				}
				if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("Makefile gate %s: %q matches no Test or Fuzz function in %v", gate, alt, run.pkgs)
				}
			}
		}
	}
}
