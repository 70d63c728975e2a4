package eigen

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"pufferfish/internal/floats"
	"pufferfish/internal/matrix"
)

func TestSymmetricEigenKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := matrix.FromRows([][]float64{{2, 1}, {1, 2}})
	vals, err := SymmetricEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if !floats.EqSlices(vals, []float64{1, 3}, 1e-10) {
		t.Errorf("eigenvalues = %v, want [1 3]", vals)
	}
}

func TestSymmetricEigenDiagonal(t *testing.T) {
	a := matrix.FromRows([][]float64{{5, 0, 0}, {0, -2, 0}, {0, 0, 1}})
	vals, err := SymmetricEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if !floats.EqSlices(vals, []float64{-2, 1, 5}, 1e-12) {
		t.Errorf("eigenvalues = %v", vals)
	}
}

func TestSymmetricEigenRejectsAsymmetric(t *testing.T) {
	a := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := SymmetricEigen(a); err == nil {
		t.Error("expected ErrNotSymmetric")
	}
}

// Property: trace = Σλ and Frobenius² = Σλ² for random symmetric
// matrices.
func TestSymmetricEigenInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 11))
		n := 2 + r.IntN(6)
		a := matrix.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := r.Float64()*4 - 2
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, err := SymmetricEigen(a)
		if err != nil {
			return false
		}
		var trace, sumSq float64
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
		}
		var sumVals float64
		for _, v := range vals {
			sumVals += v
			sumSq += v * v
		}
		frob := a.NormFrob()
		return floats.Eq(trace, sumVals, 1e-8) && floats.Eq(frob*frob, sumSq, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSecondLargestAbs(t *testing.T) {
	a := matrix.FromRows([][]float64{{1, 0, 0}, {0, 0.5, 0}, {0, 0, -0.25}})
	lam, ok, err := SecondLargestAbs(a, 1e-9)
	if err != nil || !ok {
		t.Fatalf("err=%v ok=%v", err, ok)
	}
	if !floats.Eq(lam, 0.5, 1e-12) {
		t.Errorf("second largest = %v, want 0.5", lam)
	}
	// All-unit spectrum: identity has no gap.
	_, ok, err = SecondLargestAbs(matrix.Identity(3), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("identity should report no spectral gap")
	}
}
