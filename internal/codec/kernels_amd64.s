#include "textflag.h"

// The SSE2 encode kernels, two float64 lanes per instruction. Each runs
// whole blocks only (len a multiple of its block: 4, or 8 for quantize);
// the Go wrappers in kernels_amd64.go pass the tail to the generic
// kernels. Every memory operand is loaded with MOVUPD first: a []float64
// is only 8-byte aligned, and SSE2's packed arithmetic faults on an
// unaligned memory operand.

// func subSSE2(d, c, b []float64)
//
// d = c − b. SUBPD computes each lane as SUBSD does, minuend c first.
TEXT ·subSSE2(SB), NOSPLIT, $0-72
	MOVQ  d_base+0(FP), DI
	MOVQ  c_base+24(FP), SI
	MOVQ  c_len+32(FP), CX
	MOVQ  b_base+48(FP), DX
	XORQ  AX, AX
	TESTQ CX, CX
	JZ    subdone

subloop:
	MOVUPD (SI)(AX*8), X0
	MOVUPD 16(SI)(AX*8), X1
	MOVUPD (DX)(AX*8), X2
	MOVUPD 16(DX)(AX*8), X3
	SUBPD  X2, X0
	SUBPD  X3, X1
	MOVUPD X0, (DI)(AX*8)
	MOVUPD X1, 16(DI)(AX*8)
	ADDQ   $4, AX
	CMPQ   AX, CX
	JB     subloop

subdone:
	RET

// func absMaxSSE2(t []float64) float64
//
// The largest |x|, from 0. Two running maxima (X0, X1), each the second
// operand of its MAXPD: MAXPD returns the second operand when either lane
// is a NaN, so a NaN element leaves the maximum as it was. |x| is never
// −0, so MAXPD's ±0 tie rule never picks between different bits.
TEXT ·absMaxSSE2(SB), NOSPLIT, $0-32
	MOVQ    t_base+0(FP), SI
	MOVQ    t_len+8(FP), CX
	PCMPEQL X8, X8
	PSRLQ   $1, X8                 // X8 = magnitude mask, both lanes
	XORPD   X0, X0
	XORPD   X1, X1
	TESTQ   CX, CX
	JZ      absdone

absloop:
	MOVUPD (SI), X2
	MOVUPD 16(SI), X3
	ANDPD  X8, X2
	ANDPD  X8, X3
	MAXPD  X0, X2                  // X2 = max(|x|, X0), X0 on a NaN
	MAXPD  X1, X3
	MOVAPD X2, X0
	MOVAPD X3, X1
	ADDQ   $32, SI
	SUBQ   $4, CX
	JNZ    absloop

absdone:
	MAXPD    X1, X0                // no lane of either is a NaN
	MOVAPD   X0, X1
	UNPCKHPD X1, X1
	MAXSD    X1, X0
	MOVSD    X0, ret+24(FP)
	RET

// QUANT(off, R) quantizes the pair at off(SI) into two int32 codes in
// R's low half. With y = x·inv (MULPD is MULSD per lane), the code is
// ±trunc(min(|y|, 127) + pred(0.5)), the sign y's: for |y| < 127 that is
// quantizeGeneric's int32(|y| + pred(0.5)), and for 127 ≤ |y| ≤ Inf it is
// 127.49999999999999994, which rounds to 127.5 and truncates to 127, the
// generic saturation. Truncating the signed value toward zero is the
// generic (q ^ neg) − neg. A NaN y (MINPD's second operand, 127, in that
// lane) is cleared to +0 by the CMPPD ORD mask and so becomes code 0.
// Uses X5, X6.
#define QUANT(off, R) \
	MOVUPD    off(SI), R; \
	MULPD     X11, R; \
	MOVAPD    X8, X5; \
	ANDNPD    R, X5; \
	MOVAPD    R, X6; \
	ANDPD     X8, X6; \
	CMPPD     R, R, $7; \
	MINPD     X9, X6; \
	ADDPD     X10, X6; \
	ANDPD     R, X6; \
	ORPD      X5, X6; \
	CVTTPD2PL X6, R

// func quantizeSSE2(out []byte, t []float64, inv float64)
//
// Eight codes per store: four pairs of int32 codes in [−127, 127] packed
// by PACKSSLW and PACKSSWB, which saturate nothing in that range, so each
// byte is the code's low byte, as the generic byte(int32) conversion is.
TEXT ·quantizeSSE2(SB), NOSPLIT, $0-56
	MOVQ    out_base+0(FP), DI
	MOVQ    t_base+24(FP), SI
	MOVQ    t_len+32(FP), CX
	MOVSD   inv+48(FP), X11
	MOVLHPS X11, X11               // X11 = inv, both lanes
	PCMPEQL X8, X8
	PSRLQ   $1, X8                 // X8 = magnitude mask
	MOVQ    $0x405FC00000000000, AX
	MOVQ    AX, X9
	MOVLHPS X9, X9                 // X9 = 127.0
	MOVQ    $0x3FDFFFFFFFFFFFFF, AX
	MOVQ    AX, X10
	MOVLHPS X10, X10               // X10 = pred(0.5)
	TESTQ   CX, CX
	JZ      qdone

qloop:
	QUANT(0, X0)
	QUANT(16, X1)
	QUANT(32, X2)
	QUANT(48, X3)
	PUNPCKLQDQ X1, X0              // codes 0-3
	PUNPCKLQDQ X3, X2              // codes 4-7
	PACKSSLW   X2, X0
	PACKSSWB   X0, X0
	MOVQ       X0, (DI)
	ADDQ       $64, SI
	ADDQ       $8, DI
	SUBQ       $8, CX
	JNZ        qloop

qdone:
	RET

// func putF32SSE2(out []byte, t []float64)
//
// Little-endian float32s. CVTPD2PS converts each lane as CVTSD2SS does —
// Go's float32(x) — under the same rounding mode, NaNs quieted the same.
TEXT ·putF32SSE2(SB), NOSPLIT, $0-48
	MOVQ  out_base+0(FP), DI
	MOVQ  t_base+24(FP), SI
	MOVQ  t_len+32(FP), CX
	TESTQ CX, CX
	JZ    f32done

f32loop:
	MOVUPD   (SI), X0
	MOVUPD   16(SI), X1
	CVTPD2PS X0, X0
	CVTPD2PS X1, X1
	MOVLHPS  X1, X0
	MOVUPS   X0, (DI)
	ADDQ     $32, SI
	ADDQ     $16, DI
	SUBQ     $4, CX
	JNZ      f32loop

f32done:
	RET

// func filterSSE2(vals []float64, idx []uint32, t []float64, lo int, floor float64) int
//
// Stores the entries of t with !(|x| < floor) — |x| ≥ floor, or a NaN —
// and their indices lo+i, in order, and returns how many. For a floor
// that is not a NaN this is filterGeneric's key ≥ floor: magnitude bit
// patterns order as the magnitudes do. Without a branch on the data:
// every lane is stored at the next slot, which advances by the lane's
// bit, so one slot past the last survivor may be written.
TEXT ·filterSSE2(SB), NOSPLIT, $0-96
	MOVQ    vals_base+0(FP), DI
	MOVQ    idx_base+24(FP), R10
	MOVQ    t_base+48(FP), SI
	MOVQ    t_len+56(FP), CX
	MOVQ    lo+72(FP), R9          // R9 = index of the lane
	MOVSD   floor+80(FP), X9
	MOVLHPS X9, X9                 // X9 = floor, both lanes
	PCMPEQL X8, X8
	PSRLQ   $1, X8                 // X8 = magnitude mask
	XORQ    DX, DX                 // DX = survivors stored
	TESTQ   CX, CX
	JZ      fdone

floop:
	MOVUPD   (SI), X0
	MOVUPD   16(SI), X1
	MOVAPD   X0, X2
	MOVAPD   X1, X3
	ANDPD    X8, X2
	ANDPD    X8, X3
	CMPPD    X9, X2, $5            // NLT
	CMPPD    X9, X3, $5
	MOVMSKPD X2, BX
	MOVMSKPD X3, R11
	SHLQ     $2, R11
	ORQ      R11, BX               // BX = lane bits 0-3
	MOVSD    X0, (DI)(DX*8)
	MOVL     R9, (R10)(DX*4)
	MOVQ     BX, R11
	ANDQ     $1, R11
	ADDQ     R11, DX
	INCQ     R9
	MOVHPD   X0, (DI)(DX*8)
	MOVL     R9, (R10)(DX*4)
	MOVQ     BX, R11
	SHRQ     $1, R11
	ANDQ     $1, R11
	ADDQ     R11, DX
	INCQ     R9
	MOVSD    X1, (DI)(DX*8)
	MOVL     R9, (R10)(DX*4)
	MOVQ     BX, R11
	SHRQ     $2, R11
	ANDQ     $1, R11
	ADDQ     R11, DX
	INCQ     R9
	MOVHPD   X1, (DI)(DX*8)
	MOVL     R9, (R10)(DX*4)
	SHRQ     $3, BX
	ADDQ     BX, DX
	INCQ     R9
	ADDQ     $32, SI
	SUBQ     $4, CX
	JNZ      floop

fdone:
	MOVQ DX, ret+88(FP)
	RET

// func decodeQ8SSE2(out []float64, vals []byte, scale float64)
//
// out[i] = float64(int8(vals[i])) · scale, eight elements per pass. Each
// byte is sign-extended by unpacking it against itself and shifting it
// back down arithmetically (to int16, then int32), CVTPL2PD converts each
// int32 exactly, and MULPD multiplies each lane as MULSD does: the product
// is q8Value[b] · scale, the generic decode's.
TEXT ·decodeQ8SSE2(SB), NOSPLIT, $0-56
	MOVQ     out_base+0(FP), DI
	MOVQ     vals_base+24(FP), SI
	MOVQ     vals_len+32(FP), CX
	MOVSD    scale+48(FP), X7
	MOVLHPS  X7, X7                // X7 = scale, both lanes
	TESTQ    CX, CX
	JZ       q8ddone

q8dloop:
	MOVQ      (SI), X0
	PUNPCKLBW X0, X0
	PSRAW     $8, X0               // eight int16s
	MOVO      X0, X1
	PUNPCKLWL X0, X0
	PSRAL     $16, X0              // elements 0-3 as int32s
	PUNPCKHWL X1, X1
	PSRAL     $16, X1              // elements 4-7
	CVTPL2PD  X0, X2
	PSHUFD    $0xEE, X0, X0
	CVTPL2PD  X0, X3
	CVTPL2PD  X1, X4
	PSHUFD    $0xEE, X1, X1
	CVTPL2PD  X1, X5
	MULPD     X7, X2
	MULPD     X7, X3
	MULPD     X7, X4
	MULPD     X7, X5
	MOVUPD    X2, (DI)
	MOVUPD    X3, 16(DI)
	MOVUPD    X4, 32(DI)
	MOVUPD    X5, 48(DI)
	ADDQ      $8, SI
	ADDQ      $64, DI
	SUBQ      $8, CX
	JNZ       q8dloop

q8ddone:
	RET
