//! # eclair-gui
//!
//! A from-scratch graphical-user-interface *simulator*: the substrate on
//! which every experiment in the ECLAIR reproduction runs.
//!
//! The paper's agents operate on real browsers purely through pixels
//! (screenshots in, mouse/keyboard out). This crate reproduces that contract:
//!
//! * applications are **widget trees** ([`widget`], [`tree`]) laid out into
//!   pixel rectangles by a flow [`layout`] engine inside a 1280×720 viewport;
//! * agents interact through **raw user events** ([`event`]) — clicks at
//!   points, typed text, key presses, scrolling — dispatched by a
//!   [`session::Session`] that owns focus, scrolling and form state;
//! * agents observe only **screenshots** ([`screenshot`]): a lossy rendering
//!   that keeps what pixels would carry (geometry, glyph class, drawn text,
//!   gray-out) and drops what they would not (widget ids, field names, focus
//!   flags, HTML tags);
//! * a simplified **HTML serialization** ([`html`]) exists for the
//!   set-of-marks grounding experiments, with per-widget *render tags* that
//!   may diverge from semantics (an icon button rendering as `<svg>`), the
//!   exact failure mode Section 4.2.1 of the paper describes;
//! * **themes and UI drift** ([`theme`]) mutate built pages (relabel, retag,
//!   reorder, re-pad, inject banners) to reproduce the brittleness that
//!   breaks the RPA baseline in the Section 3 case studies.
//!
//! Determinism: nothing in this crate consults wall-clock time or global
//! RNGs; "animation" (the blinking caret) is a pure function of an explicit
//! frame counter.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod arena;
pub mod event;
pub mod geometry;
pub mod html;
pub mod intern;
pub mod layout;
pub mod screenshot;
pub mod session;
pub mod surface;
pub mod theme;
pub mod tree;
pub mod widget;

pub use arena::ChildVec;
pub use event::{Key, SemanticEvent, UserEvent};
pub use geometry::{Point, Rect, Size, SizeBucket};
pub use intern::{intern, Sym};
pub use screenshot::{PaintItem, Screenshot, VisualClass};
pub use session::{no_cache_env, GuiApp, Session};
pub use surface::{FaultNote, GuiSurface};
pub use theme::{DriftOp, Theme};
pub use tree::{Page, PageBuilder};
pub use widget::{Widget, WidgetId, WidgetKind};

/// Default viewport used by all experiments: 1280×720, the resolution the
/// paper's screenshots were captured at.
pub const VIEWPORT: Size = Size { w: 1280, h: 720 };
