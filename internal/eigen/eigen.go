// Package eigen provides the eigenvalue computation the paper needs
// and the standard library lacks: a cyclic Jacobi eigensolver for
// symmetric matrices, used to compute the eigengap g_Θ of P·P* (eq 7)
// and of reversible P (eq 14) after similarity-symmetrization.
//
// State spaces in this reproduction are at most ~51, so the O(k³)
// Jacobi sweeps are more than fast enough and numerically robust.
package eigen

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"pufferfish/internal/matrix"
)

// ErrNotSymmetric is returned when SymmetricEigen is handed a matrix
// that is not symmetric at the working tolerance.
var ErrNotSymmetric = errors.New("eigen: matrix is not symmetric")

// ErrNoConvergence is returned when an iteration fails to converge in
// the allotted sweeps.
var ErrNoConvergence = errors.New("eigen: iteration did not converge")

// SymmetricEigen returns all eigenvalues of the symmetric matrix a in
// ascending order, using cyclic Jacobi rotations. a is not modified.
func SymmetricEigen(a *matrix.Dense) ([]float64, error) {
	r, c := a.Dims()
	if r != c {
		return nil, fmt.Errorf("eigen: need square matrix, got %d×%d", r, c)
	}
	if !a.IsSymmetric(1e-8 * math.Max(1, a.MaxAbs())) {
		return nil, ErrNotSymmetric
	}
	n := r
	w := a.Clone()
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off < 1e-13*math.Max(1, w.MaxAbs()) {
			vals := make([]float64, n)
			for i := 0; i < n; i++ {
				vals[i] = w.At(i, i)
			}
			sort.Float64s(vals)
			return vals, nil
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				cth := 1 / math.Sqrt(1+t*t)
				sth := t * cth
				rotate(w, p, q, cth, sth)
			}
		}
	}
	return nil, ErrNoConvergence
}

// rotate applies the two-sided Jacobi rotation J(p,q,θ)ᵀ·W·J(p,q,θ)
// in place, keeping W symmetric.
func rotate(w *matrix.Dense, p, q int, c, s float64) {
	n, _ := w.Dims()
	for i := 0; i < n; i++ {
		wip, wiq := w.At(i, p), w.At(i, q)
		w.Set(i, p, c*wip-s*wiq)
		w.Set(i, q, s*wip+c*wiq)
	}
	for i := 0; i < n; i++ {
		wpi, wqi := w.At(p, i), w.At(q, i)
		w.Set(p, i, c*wpi-s*wqi)
		w.Set(q, i, s*wpi+c*wqi)
	}
}

func offDiagNorm(w *matrix.Dense) float64 {
	n, _ := w.Dims()
	var s float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				s += w.At(i, j) * w.At(i, j)
			}
		}
	}
	return math.Sqrt(s)
}

// SecondLargestAbs returns max{|λ| : λ eigenvalue of a, |λ| < 1−tol}
// for a symmetric matrix whose spectrum lies in [−1, 1] (a symmetrized
// stochastic kernel). Eigenvalues within tol of ±1 are treated as the
// unit eigenvalue(s) and skipped. If every eigenvalue is within tol of
// 1 in absolute value (no spectral gap), it returns ok=false.
func SecondLargestAbs(a *matrix.Dense, tol float64) (lambda float64, ok bool, err error) {
	vals, err := SymmetricEigen(a)
	if err != nil {
		return 0, false, err
	}
	best := -1.0
	for _, v := range vals {
		av := math.Abs(v)
		if av >= 1-tol {
			continue
		}
		if av > best {
			best = av
		}
	}
	if best < 0 {
		return 0, false, nil
	}
	return best, true, nil
}
