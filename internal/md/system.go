// Package md is the molecular-dynamics substrate that drives the network
// experiments: a from-scratch water-like fluid (single-site Lennard-Jones
// particles at liquid-water molecular density), cell-list range-limited
// force evaluation, and velocity-Verlet integration.
//
// Substitution note (DESIGN.md): the paper's benchmarks run a production
// water model on the real machine. For network purposes what matters is
// (a) how many atoms cross each channel per step, (b) how smooth their
// trajectories are, and (c) the magnitude distribution of positions and
// forces in fixed point. A thermalized LJ fluid at water density reproduces
// all three; bonded terms and electrostatics would change force values by
// O(1) factors without changing any network-level conclusion.
package md

import (
	"fmt"
	"math"

	"anton3/internal/fixp"
	"anton3/internal/sim"
)

// Physical constants and model parameters (units: angstrom, femtosecond,
// amu, kcal/mol).
const (
	// Lennard-Jones parameters of TIP3P water oxygen.
	Sigma   = 3.1506 // angstrom
	Epsilon = 0.1521 // kcal/mol
	Mass    = 18.015 // amu (one particle per water molecule)

	// Density is liquid water's molecular number density (molecules/A^3).
	Density = 0.0334

	// Cutoff is the range-limited interaction radius, a typical MD choice.
	Cutoff = 9.0 // angstrom

	// DT is the integration time step.
	DT = 2.0 // femtosecond

	// KcalPerMolToAccel converts kcal/mol/A/amu to A/fs^2.
	KcalPerMolToAccel = 4.184e-4

	// BoltzmannKcal is kB in kcal/mol/K.
	BoltzmannKcal = 0.0019872
)

// System is one chemical system state.
type System struct {
	N   int
	Box float64 // cubic box side, angstrom

	Pos   []fixp.Vec // wrapped into [0, Box)
	Vel   []fixp.Vec // A/fs
	Force []fixp.Vec // kcal/mol/A

	cells *cellList
	// Potential is the total LJ energy of the last force evaluation.
	Potential float64
	// pairCount is the number of in-cutoff pairs of the last force
	// evaluation.
	pairCount int
	// Steps counts integration steps taken.
	Steps int
}

// BoxForAtoms returns the cubic box side holding n particles at water
// density.
func BoxForAtoms(n int) float64 {
	return math.Cbrt(float64(n) / Density)
}

// NewWater builds a thermalized water-like system of n particles at
// temperature tempK, with positions on a jittered lattice (no overlaps) and
// Maxwell-Boltzmann velocities with zero net momentum.
func NewWater(n int, tempK float64, rng *sim.Rand) *System {
	if n < 8 {
		panic("md: need at least 8 particles")
	}
	s := &System{
		N:     n,
		Box:   BoxForAtoms(n),
		Pos:   make([]fixp.Vec, n),
		Vel:   make([]fixp.Vec, n),
		Force: make([]fixp.Vec, n),
	}
	// Simple cubic lattice with jitter keeps the minimum distance safe.
	perSide := int(math.Ceil(math.Cbrt(float64(n))))
	spacing := s.Box / float64(perSide)
	jitter := spacing * 0.1
	i := 0
	for z := 0; z < perSide && i < n; z++ {
		for y := 0; y < perSide && i < n; y++ {
			for x := 0; x < perSide && i < n; x++ {
				s.Pos[i] = fixp.Vec{
					X: (float64(x)+0.5)*spacing + jitter*(rng.Float64()-0.5),
					Y: (float64(y)+0.5)*spacing + jitter*(rng.Float64()-0.5),
					Z: (float64(z)+0.5)*spacing + jitter*(rng.Float64()-0.5),
				}
				i++
			}
		}
	}

	// Maxwell-Boltzmann velocities.
	sigmaV := math.Sqrt(BoltzmannKcal * tempK * KcalPerMolToAccel / Mass)
	var mom fixp.Vec
	for i := range s.Vel {
		s.Vel[i] = fixp.Vec{
			X: sigmaV * rng.NormFloat64(),
			Y: sigmaV * rng.NormFloat64(),
			Z: sigmaV * rng.NormFloat64(),
		}
		mom = mom.Add(s.Vel[i])
	}
	// Remove center-of-mass drift.
	mom = mom.Scale(1 / float64(n))
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Sub(mom)
	}

	s.cells = newCellList(s.Box, Cutoff)
	s.ComputeForces()
	return s
}

// wrap maps a coordinate into [0, box). A tiny negative remainder plus box
// rounds to box itself; that point is 0 in the periodic box.
func wrap(x, box float64) float64 {
	x = math.Mod(x, box)
	if x < 0 {
		x += box
		if x == box {
			x = 0
		}
	}
	return x
}

// MinImage returns the minimum-image displacement a-b in a periodic box.
func MinImage(a, b fixp.Vec, box float64) fixp.Vec {
	d := a.Sub(b)
	d.X -= box * math.Round(d.X/box)
	d.Y -= box * math.Round(d.Y/box)
	d.Z -= box * math.Round(d.Z/box)
	return d
}

// Temperature returns the instantaneous kinetic temperature in kelvin.
func (s *System) Temperature() float64 {
	var ke float64
	for _, v := range s.Vel {
		ke += v.Norm2()
	}
	// KE = sum 1/2 m v^2 (converted to kcal/mol); T = 2 KE / (3 N kB).
	ke *= 0.5 * Mass / KcalPerMolToAccel
	return 2 * ke / (3 * float64(s.N) * BoltzmannKcal)
}

// KineticEnergy returns the kinetic energy in kcal/mol.
func (s *System) KineticEnergy() float64 {
	var ke float64
	for _, v := range s.Vel {
		ke += v.Norm2()
	}
	return 0.5 * Mass * ke / KcalPerMolToAccel
}

// TotalEnergy returns kinetic + potential, valid right after a step.
func (s *System) TotalEnergy() float64 { return s.KineticEnergy() + s.Potential }

// Momentum returns the total momentum (amu*A/fs).
func (s *System) Momentum() fixp.Vec {
	var p fixp.Vec
	for _, v := range s.Vel {
		p = p.Add(v)
	}
	return p.Scale(Mass)
}

func (s *System) String() string {
	return fmt.Sprintf("md.System{N:%d box:%.1fA T:%.0fK}", s.N, s.Box, s.Temperature())
}
