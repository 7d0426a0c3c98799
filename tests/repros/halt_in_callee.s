; A `halt` inside a suppressed call. Task A calls F, F never returns,
; and the program ends inside the call, so task A exits to `halt`, which
; is not among its descriptor targets. The checker used to stop at the
; call ("call to 0x100c never returns statically", a warning) and accept
; the program; every machine then faulted ("task at 0x1000 exited to
; Halt, which is not among its descriptor targets").
;
; `ms-cfg::check_program` must reject this statically.
.text
main:
.task targets=B create=$2
A:
    li!f  $2, 7
    jal   F
.task targets=halt create=
B:
    halt
F:
    halt
