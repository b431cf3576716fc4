// Command lpsolve solves linear programs written in the repository's
// small LP text format using the built-in two-phase simplex (and branch
// and bound when integer variables are declared). It demonstrates the
// solver substrate standalone.
//
// Usage:
//
//	lpsolve problem.lp
//	echo 'max: x
//	c: x <= 3' | lpsolve -duals
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mecoffload/internal/lp"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "lpsolve: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("lpsolve", flag.ContinueOnError)
	var (
		duals = fs.Bool("duals", false, "also print constraint shadow prices")
		relax = fs.Bool("relax", false, "ignore integer declarations (solve the relaxation)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "lpsolve: closing input: %v\n", cerr)
			}
		}()
		in = f
	}

	pp, err := lp.Parse(in)
	if err != nil {
		return err
	}

	var sol *lp.Solution
	if pp.HasInteger && !*relax {
		sol, err = pp.Problem.SolveInteger()
	} else {
		sol, err = pp.Problem.Solve()
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "status: %s\n", sol.Status)
	// X is set for an optimum, and for the incumbent of a branch and bound
	// that ran out of nodes before it could prove it optimal.
	if sol.X == nil {
		return nil
	}
	fmt.Fprintf(out, "objective: %g\n", sol.Objective)
	for i, name := range pp.Names {
		fmt.Fprintf(out, "%s = %g\n", name, sol.Value(lp.Var(i)))
	}
	if *duals && sol.Dual != nil {
		for i, label := range pp.RowNames {
			fmt.Fprintf(out, "dual[%s] = %g\n", label, sol.DualOf(i))
		}
	}
	fmt.Fprintf(out, "iterations: %d, nodes: %d\n", sol.Iterations, sol.Nodes)
	return nil
}
