// Package ml is the from-scratch machine-learning substrate used by the FL
// experiments: dense models with a flat parameter vector, minibatch SGD
// with momentum, softmax cross-entropy, and the L2 clipping that DP-FL
// applies to model updates.
//
// Substitution note (see ARCHITECTURE.md, "Datasets and models"): the paper trains ResNet-18, VGG-19,
// a CNN, and Albert under PyTorch. The distributed-DP machinery treats the
// model as an opaque parameter vector; these compact models exercise the
// identical code paths (clip → encode → noise → aggregate → decode → apply)
// at laptop scale while leaving utility *comparisons* between noise schemes
// meaningful.
package ml

import (
	"fmt"
	"math"

	"repro/internal/prg"
	"repro/internal/rng"
)

// Model is a supervised classifier with a flat parameter view, which is
// what the FL layer clips, encodes, and aggregates.
type Model interface {
	// NumParams returns the parameter count (fixed for a model's lifetime).
	NumParams() int
	// Params copies the parameters into out (len NumParams).
	Params(out []float64)
	// SetParams overwrites the parameters from in (len NumParams).
	SetParams(in []float64)
	// Gradient computes the average gradient of the loss over the batch,
	// accumulating into grad (len NumParams, caller-zeroed), and returns
	// the average loss.
	Gradient(xs [][]float64, ys []int, grad []float64) float64
	// Predict returns the argmax class for one example.
	Predict(x []float64) int
	// Clone returns an independent copy with identical parameters.
	Clone() Model
}

// softmaxCE computes softmax probabilities in place over logits and
// returns the cross-entropy loss against label y.
func softmaxCE(logits []float64, y int) float64 {
	maxL := math.Inf(-1)
	for _, v := range logits {
		if v > maxL {
			maxL = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - maxL)
		logits[i] = e
		sum += e
	}
	for i := range logits {
		logits[i] /= sum
	}
	p := logits[y]
	if p < 1e-12 {
		p = 1e-12
	}
	return -math.Log(p)
}

// Linear is a multiclass softmax (logistic) regression model:
// logits = W·x + b.
type Linear struct {
	inDim, classes int
	w              []float64 // classes × inDim, row-major
	b              []float64 // classes
}

// NewLinear creates a zero-initialized softmax regression model.
func NewLinear(inDim, classes int) *Linear {
	if inDim <= 0 || classes < 2 {
		panic(fmt.Sprintf("ml: invalid Linear dims %d×%d", inDim, classes))
	}
	return &Linear{inDim: inDim, classes: classes,
		w: make([]float64, classes*inDim), b: make([]float64, classes)}
}

// NumParams implements Model.
func (m *Linear) NumParams() int { return len(m.w) + len(m.b) }

// Params implements Model.
func (m *Linear) Params(out []float64) {
	copy(out, m.w)
	copy(out[len(m.w):], m.b)
}

// SetParams implements Model.
func (m *Linear) SetParams(in []float64) {
	copy(m.w, in[:len(m.w)])
	copy(m.b, in[len(m.w):])
}

func (m *Linear) logits(x []float64, out []float64) {
	for c := 0; c < m.classes; c++ {
		row := m.w[c*m.inDim : (c+1)*m.inDim]
		var s float64
		for i, xi := range x {
			s += row[i] * xi
		}
		out[c] = s + m.b[c]
	}
}

// Gradient implements Model.
func (m *Linear) Gradient(xs [][]float64, ys []int, grad []float64) float64 {
	probs := make([]float64, m.classes)
	gw := grad[:len(m.w)]
	gb := grad[len(m.w):]
	var loss float64
	inv := 1 / float64(len(xs))
	for n, x := range xs {
		m.logits(x, probs)
		loss += softmaxCE(probs, ys[n])
		for c := 0; c < m.classes; c++ {
			d := probs[c] * inv
			if c == ys[n] {
				d -= inv
			}
			row := gw[c*m.inDim : (c+1)*m.inDim]
			for i, xi := range x {
				row[i] += d * xi
			}
			gb[c] += d
		}
	}
	return loss * inv
}

// Predict implements Model.
func (m *Linear) Predict(x []float64) int {
	logits := make([]float64, m.classes)
	m.logits(x, logits)
	best := 0
	for c, v := range logits {
		if v > logits[best] {
			best = c
		}
	}
	return best
}

// Clone implements Model.
func (m *Linear) Clone() Model {
	c := NewLinear(m.inDim, m.classes)
	copy(c.w, m.w)
	copy(c.b, m.b)
	return c
}

// MLP is a one-hidden-layer perceptron with ReLU activation:
// logits = W2·relu(W1·x + b1) + b2.
type MLP struct {
	inDim, hidden, classes int
	w1, b1, w2, b2         []float64
}

// NewMLP creates an MLP with Kaiming-style initialization drawn from seed.
func NewMLP(inDim, hidden, classes int, seed prg.Seed) *MLP {
	if inDim <= 0 || hidden <= 0 || classes < 2 {
		panic(fmt.Sprintf("ml: invalid MLP dims %d/%d/%d", inDim, hidden, classes))
	}
	m := &MLP{inDim: inDim, hidden: hidden, classes: classes,
		w1: make([]float64, hidden*inDim), b1: make([]float64, hidden),
		w2: make([]float64, classes*hidden), b2: make([]float64, classes)}
	s := prg.NewStream(seed)
	std1 := math.Sqrt(2 / float64(inDim))
	for i := range m.w1 {
		m.w1[i] = rng.Gaussian(s, 0, std1)
	}
	std2 := math.Sqrt(2 / float64(hidden))
	for i := range m.w2 {
		m.w2[i] = rng.Gaussian(s, 0, std2)
	}
	return m
}

// NumParams implements Model.
func (m *MLP) NumParams() int {
	return len(m.w1) + len(m.b1) + len(m.w2) + len(m.b2)
}

// Params implements Model.
func (m *MLP) Params(out []float64) {
	o := 0
	for _, p := range [][]float64{m.w1, m.b1, m.w2, m.b2} {
		copy(out[o:], p)
		o += len(p)
	}
}

// SetParams implements Model.
func (m *MLP) SetParams(in []float64) {
	o := 0
	for _, p := range [][]float64{m.w1, m.b1, m.w2, m.b2} {
		copy(p, in[o:o+len(p)])
		o += len(p)
	}
}

func (m *MLP) forward(x []float64, hid, logits []float64) {
	for h := 0; h < m.hidden; h++ {
		row := m.w1[h*m.inDim : (h+1)*m.inDim]
		var s float64
		for i, xi := range x {
			s += row[i] * xi
		}
		s += m.b1[h]
		if s < 0 {
			s = 0
		}
		hid[h] = s
	}
	for c := 0; c < m.classes; c++ {
		row := m.w2[c*m.hidden : (c+1)*m.hidden]
		var s float64
		for h, hv := range hid {
			s += row[h] * hv
		}
		logits[c] = s + m.b2[c]
	}
}

// Gradient implements Model.
func (m *MLP) Gradient(xs [][]float64, ys []int, grad []float64) float64 {
	o1 := len(m.w1)
	o2 := o1 + len(m.b1)
	o3 := o2 + len(m.w2)
	gw1, gb1, gw2, gb2 := grad[:o1], grad[o1:o2], grad[o2:o3], grad[o3:]
	hid := make([]float64, m.hidden)
	probs := make([]float64, m.classes)
	dHid := make([]float64, m.hidden)
	var loss float64
	inv := 1 / float64(len(xs))
	for n, x := range xs {
		m.forward(x, hid, probs)
		loss += softmaxCE(probs, ys[n])
		for h := range dHid {
			dHid[h] = 0
		}
		for c := 0; c < m.classes; c++ {
			d := probs[c]
			if c == ys[n] {
				d -= 1
			}
			d *= inv
			row := gw2[c*m.hidden : (c+1)*m.hidden]
			w2row := m.w2[c*m.hidden : (c+1)*m.hidden]
			for h, hv := range hid {
				row[h] += d * hv
				dHid[h] += d * w2row[h]
			}
			gb2[c] += d
		}
		for h := 0; h < m.hidden; h++ {
			if hid[h] <= 0 { // ReLU gate
				continue
			}
			dh := dHid[h]
			row := gw1[h*m.inDim : (h+1)*m.inDim]
			for i, xi := range x {
				row[i] += dh * xi
			}
			gb1[h] += dh
		}
	}
	return loss * inv
}

// Predict implements Model.
func (m *MLP) Predict(x []float64) int {
	hid := make([]float64, m.hidden)
	logits := make([]float64, m.classes)
	m.forward(x, hid, logits)
	best := 0
	for c, v := range logits {
		if v > logits[best] {
			best = c
		}
	}
	return best
}

// Clone implements Model.
func (m *MLP) Clone() Model {
	c := &MLP{inDim: m.inDim, hidden: m.hidden, classes: m.classes,
		w1: append([]float64(nil), m.w1...), b1: append([]float64(nil), m.b1...),
		w2: append([]float64(nil), m.w2...), b2: append([]float64(nil), m.b2...)}
	return c
}
