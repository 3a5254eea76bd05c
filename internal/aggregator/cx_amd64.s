#include "textflag.h"

// func compareExchangeSSE2(lo, hi []float64)
//
// Two columns per instruction: with a = lo[c:c+2] and b = hi[c:c+2],
// lo = MINPD(a,b) | MINPD(b,a) and hi = -(MINPD(-a,-b) | MINPD(-b,-a)) —
// the sequence Go lowers min and max to on amd64, one column at a time.
// MINPD returns its second operand on a NaN or a ±0 tie, so the OR of both
// orders is -0 on a tie of zeros and a NaN (every exponent bit set, the
// mantissa nonzero) when either side is one. An odd last column runs the
// same sequence in MINSD form. Callers guarantee len(hi) >= len(lo).
TEXT ·compareExchangeSSE2(SB), NOSPLIT, $0-48
	MOVQ    lo_base+0(FP), SI
	MOVQ    lo_len+8(FP), CX
	MOVQ    hi_base+24(FP), DI
	PCMPEQL X7, X7
	PSLLQ   $63, X7                // X7 = sign mask, both lanes
	XORQ    AX, AX                 // AX = column
	MOVQ    CX, DX
	ANDQ    $-2, DX                // DX = columns in whole pairs
	JZ      tail

pair:
	MOVUPD (SI)(AX*8), X0          // a
	MOVUPD (DI)(AX*8), X1          // b
	MOVAPD X0, X2
	MINPD  X1, X2
	MOVAPD X1, X3
	MINPD  X0, X3
	ORPD   X3, X2                  // min(a, b)
	XORPD  X7, X0                  // -a
	XORPD  X7, X1                  // -b
	MOVAPD X0, X4
	MINPD  X1, X4
	MINPD  X0, X1
	ORPD   X4, X1                  // min(-a, -b)
	XORPD  X7, X1                  // max(a, b)
	MOVUPD X2, (SI)(AX*8)
	MOVUPD X1, (DI)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, DX
	JB     pair

tail:
	CMPQ   AX, CX
	JAE    done
	MOVSD  (SI)(AX*8), X0
	MOVSD  (DI)(AX*8), X1
	MOVAPD X0, X2
	MINSD  X1, X2
	MOVAPD X1, X3
	MINSD  X0, X3
	ORPD   X3, X2
	XORPD  X7, X0
	XORPD  X7, X1
	MOVAPD X0, X4
	MINSD  X1, X4
	MINSD  X0, X1
	ORPD   X4, X1
	XORPD  X7, X1
	MOVSD  X2, (SI)(AX*8)
	MOVSD  X1, (DI)(AX*8)

done:
	RET
